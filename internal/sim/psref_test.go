package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refPS is the per-flow water-filling algorithm that PSResource's
// virtual clock replaced, kept as a test oracle. Every flow carries its
// own remaining work and completion event; every change to the flow set
// advances all flows at the old rate and re-times every event at the
// new one, which costs O(n) events per change.
type refPS struct {
	env               *Env
	capacity, flowCap float64
	flows             []*refFlow
	lastUpdate        float64
}

type refFlow struct {
	res       *refPS
	remaining float64
	rate      float64
	ev        Event
	done      func(any)
	arg       any
}

// start begins a flow of amount units; done(arg) fires on completion.
func (r *refPS) start(amount float64, done func(any), arg any) {
	if amount <= 0 {
		r.env.AfterArg(0, done, arg)
		return
	}
	r.advance()
	r.flows = append(r.flows, &refFlow{res: r, remaining: amount, done: done, arg: arg})
	r.reschedule()
}

func (r *refPS) advance() {
	now := r.env.now
	if dt := now - r.lastUpdate; dt > 0 {
		for _, f := range r.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	r.lastUpdate = now
}

// reschedule re-times every flow's completion event; cancel plus a
// fresh schedule consumes one sequence number per flow, exactly like the
// in-place retime the original engine used.
func (r *refPS) reschedule() {
	n := len(r.flows)
	if n == 0 {
		return
	}
	rate := r.capacity / float64(n)
	if r.flowCap > 0 && rate > r.flowCap {
		rate = r.flowCap
	}
	for _, f := range r.flows {
		f.rate = rate
		f.ev.Cancel()
		f.ev = r.env.AtArg(r.env.now+f.remaining/rate, refComplete, f)
	}
}

func refComplete(arg any) {
	f := arg.(*refFlow)
	r := f.res
	r.advance()
	for i, g := range r.flows {
		if g == f {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			break
		}
	}
	r.reschedule()
	f.done(f.arg)
}

// psStart is one flow of a randomized schedule.
type psStart struct {
	at, amount float64
}

// psCompletion records one flow's completion.
type psCompletion struct {
	id int
	at float64
}

// psSchedule is a randomized start schedule on one resource.
type psSchedule struct {
	capacity, flowCap float64
	starts            []psStart
}

// randomSchedule draws a start schedule that exercises the corner cases
// of processor sharing: simultaneous starts, equal-size flows (exact
// finish-tag ties), zero-length flows, starts landing while the resource
// is idle, and per-flow caps that bind at some flow counts but not others.
func randomSchedule(rng *rand.Rand, capped bool) psSchedule {
	s := psSchedule{capacity: 1 + 99*rng.Float64()}
	if capped {
		s.flowCap = s.capacity * (0.05 + 0.6*rng.Float64())
	}
	n := 1 + rng.Intn(64)
	at := 0.0
	for i := 0; i < n; i++ {
		switch x := rng.Float64(); {
		case x < 0.3 && i > 0: // same instant as the previous start
		case x < 0.4: // a gap long enough to drain the resource
			at += 200 / s.capacity * rng.Float64() * 10
		default:
			at += rng.ExpFloat64() * 2 / s.capacity
		}
		var amount float64
		switch x := rng.Float64(); {
		case x < 0.1:
			amount = 0
		case x < 0.35 && i > 0:
			amount = s.starts[rng.Intn(i)].amount
		default:
			amount = 0.01 + 10*rng.Float64()
		}
		s.starts = append(s.starts, psStart{at: at, amount: amount})
	}
	return s
}

// psRecorder collects completions from static callbacks.
type psRecorder struct {
	env  *Env
	done []psCompletion
}

type psTicket struct {
	rec *psRecorder
	id  int
}

func recordCompletion(arg any) {
	t := arg.(*psTicket)
	t.rec.done = append(t.rec.done, psCompletion{id: t.id, at: t.rec.env.Now()})
}

// runSchedule replays s through start, which begins one flow whose
// completion must call done(arg), and returns the completions in order.
func runSchedule(t *testing.T, s psSchedule, start func(e *Env, amount float64, done func(any), arg any)) []psCompletion {
	t.Helper()
	e := NewEnv()
	rec := &psRecorder{env: e}
	for i, st := range s.starts {
		tk := &psTicket{rec: rec, id: i}
		amount := st.amount
		e.At(st.at, func() { start(e, amount, recordCompletion, tk) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return rec.done
}

func relClose(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestPSResourceMatchesReference drives the virtual-clock resource and
// the per-flow reference with the same seeded random schedules, flow cap
// on and off, and requires the same completion order with completion
// times equal to 1e-12 relative.
func TestPSResourceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng, seed%2 == 0)
		var res *PSResource
		got := runSchedule(t, s, func(e *Env, amount float64, done func(any), arg any) {
			if res == nil {
				res = NewPSResource(e, "ps", s.capacity, s.flowCap)
			}
			res.StartFlowArg(amount, done, arg)
		})
		var ref *refPS
		want := runSchedule(t, s, func(e *Env, amount float64, done func(any), arg any) {
			if ref == nil {
				ref = &refPS{env: e, capacity: s.capacity, flowCap: s.flowCap}
			}
			ref.start(amount, done, arg)
		})
		if len(got) != len(s.starts) || len(want) != len(s.starts) {
			t.Fatalf("seed %d: %d/%d completions of %d flows", seed, len(got), len(want), len(s.starts))
		}
		for i := range want {
			if got[i].id != want[i].id || !relClose(got[i].at, want[i].at, 1e-12) {
				t.Fatalf("seed %d (cap %v): completion %d = flow %d at %.17g, reference flow %d at %.17g",
					seed, s.flowCap, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
	}
}

// TestPSResourceIdenticalFlowsClosedForm checks n identical flows of
// size S started together against the closed form: all finish at
// S / min(FlowCap, C/n), in start order, in one instant.
func TestPSResourceIdenticalFlowsClosedForm(t *testing.T) {
	const capacity, size = 12.5, 300.0
	for _, flowCap := range []float64{0, 0.9, 4} {
		for _, n := range []int{1, 2, 8, 64} {
			t.Run(fmt.Sprintf("cap%v/n%d", flowCap, n), func(t *testing.T) {
				s := psSchedule{capacity: capacity, flowCap: flowCap}
				for i := 0; i < n; i++ {
					s.starts = append(s.starts, psStart{at: 0, amount: size})
				}
				var res *PSResource
				got := runSchedule(t, s, func(e *Env, amount float64, done func(any), arg any) {
					if res == nil {
						res = NewPSResource(e, "ps", capacity, flowCap)
					}
					res.StartFlowArg(amount, done, arg)
				})
				rate := capacity / float64(n)
				if flowCap > 0 && flowCap < rate {
					rate = flowCap
				}
				want := size / rate
				for i, c := range got {
					if c.id != i || !relClose(c.at, want, 1e-15) {
						t.Fatalf("completion %d = flow %d at %.17g, want flow %d at %.17g", i, c.id, c.at, i, want)
					}
				}
			})
		}
	}
}
