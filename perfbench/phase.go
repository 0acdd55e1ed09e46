package main

import (
	"sync"
	"time"
)

// phaseResult is one timed closed-loop phase.
type phaseResult struct {
	outcomes []outcome
	elapsed  time.Duration
	rounds   int
}

// jobs counts the campaign jobs the verified answers resolved.
func (p phaseResult) jobs() int {
	n := 0
	for _, o := range p.outcomes {
		if o.err == nil {
			n += o.jobs
		}
	}
	return n
}

// jobsPerSecond is the median over rounds of the jobs a round resolved
// divided by its span, first submit to last answer. Every round carries
// the same mix, so the median discounts a round that a transient stall
// of the host stretched.
func (p phaseResult) jobsPerSecond() float64 {
	type span struct {
		start, end time.Time
		jobs       int
	}
	rounds := map[int]*span{}
	for _, o := range p.outcomes {
		s := rounds[o.round]
		if s == nil {
			s = &span{start: o.start, end: o.end}
			rounds[o.round] = s
		}
		if o.start.Before(s.start) {
			s.start = o.start
		}
		if o.end.After(s.end) {
			s.end = o.end
		}
		if o.err == nil {
			s.jobs += o.jobs
		}
	}
	var rates []float64
	for _, s := range rounds {
		rates = append(rates, ratio(float64(s.jobs), s.end.Sub(s.start).Seconds()))
	}
	return median(rates)
}

// latencies are the submit-to-verified-answer times of the answered
// requests, in milliseconds.
func (p phaseResult) latencies() []float64 {
	var out []float64
	for _, o := range p.outcomes {
		if o.err == nil {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

// failures are the requests that were not answered correctly.
func (p phaseResult) failures() []error {
	var out []error
	for _, o := range p.outcomes {
		if o.err != nil {
			out = append(out, o.err)
		}
	}
	return out
}

// runPhase drives the daemon at base with a closed loop: each client
// sends its next request only once the previous one is answered. The
// clients meet at the start of every round; the phase ends at the first
// round boundary past the deadline, so a phase always runs whole rounds
// and at least one.
func runPhase(base string, s *stream, clients int, seconds float64, book *answers) phaseResult {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	bar := newBarrier(clients)
	per := make([][]outcome, clients)
	rounds := make([]int, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(base, book)
			for i := 0; ; i++ {
				if bar.await(func() bool { return i > 0 && time.Now().After(deadline) }) {
					rounds[c] = i
					return
				}
				rd := s.round(i)
				if rd.pair != nil {
					per[c] = append(per[c], cl.run(*rd.pair, i))
				}
				for _, o := range rd.ops[c] {
					per[c] = append(per[c], cl.run(o, i))
				}
			}
		}()
	}
	wg.Wait()
	res := phaseResult{rounds: rounds[0]}
	var last time.Time
	for _, os := range per {
		for _, o := range os {
			if o.end.After(last) {
				last = o.end
			}
		}
		res.outcomes = append(res.outcomes, os...)
	}
	res.elapsed = last.Sub(start)
	return res
}

// run sends one op of round i.
func (c *client) run(o op, i int) outcome {
	var out outcome
	if o.kind == opDoc {
		out = c.doc(o.doc)
	} else {
		out = c.job(o.kind, o.job)
	}
	out.round = i
	return out
}

// barrier is a reusable rendezvous of n goroutines; the last to arrive
// makes the decision every one of them returns.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	stop    bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await(decide func() bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.stop = decide()
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return b.stop
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.stop
}
