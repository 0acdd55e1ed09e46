package sim

import (
	"fmt"
	"math"
	"testing"
)

// TestPSRetimesPerChange pins the structural property of the virtual
// clock: one flow start, and one completion that leaves flows active,
// each move exactly one event, whether 1, 8 or 64 flows share the
// resource. The per-flow algorithm moved one event per active flow.
func TestPSRetimesPerChange(t *testing.T) {
	for _, k := range []int{1, 8, 64} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			e := NewEnv()
			r := NewPSResource(e, "mem", 100, 0)
			for i := 0; i < k; i++ {
				r.StartFlow(float64(10+i), nil, nil) // distinct sizes: one completion per event
			}
			before := e.Counters()
			r.StartFlow(1000, nil, nil)
			if d := e.Counters().Retimes - before.Retimes; d != 1 {
				t.Fatalf("start with %d active flows retimed %d times, want 1", k, d)
			}
			next, _ := e.NextEventTime()
			before = e.Counters()
			if err := e.RunBefore(math.Nextafter(next, math.Inf(1))); err != nil {
				t.Fatal(err)
			}
			if len(r.flows) != k {
				t.Fatalf("%d flows active after the first completion, want %d", len(r.flows), k)
			}
			after := e.Counters()
			if d := after.Retimes - before.Retimes; d != 1 {
				t.Fatalf("completion with %d flows left retimed %d times, want 1", k, d)
			}
			// The fired event is spent; the new head gets a fresh one.
			if d := after.Events - before.Events; d != 1 {
				t.Fatalf("completion with no waiting process scheduled %d events, want 1", d)
			}
		})
	}
}

// TestCountersCountWork checks each counter against a run whose work is
// known exactly, and that resetting an environment zeroes them.
func TestCountersCountWork(t *testing.T) {
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	e.Spawn("a", func(p *Proc) { // start, 2 waits, transfer: 4 switches
		p.Wait(1)
		p.Wait(1)
		r.StartFlow(10, nil, nil).Await(p)
	})
	e.Spawn("b", func(p *Proc) { // start, transfer: 2 switches
		r.StartFlow(40, nil, nil).Await(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// b runs alone until a joins at t=2; a finishes at t=4, b at t=5.
	// Events: 2 starts, 2 timed waits, 2 wakes after completions, and
	// 2 completion events: the first, scheduled when b starts (a's start
	// moves it in place), then a fresh one for b after a completes.
	// Retimes: b starts, a starts, a completes; b's completion empties
	// the resource and retimes nothing.
	want := Counters{Events: 8, Retimes: 3, Switches: 6}
	if got := e.Counters(); got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
	if got := (&Env{}).Counters(); got != (Counters{}) {
		t.Fatalf("zero env counters = %+v", got)
	}
	e.Reset()
	if got := e.Counters(); got != (Counters{}) {
		t.Fatalf("reset env counters = %+v", got)
	}
}
