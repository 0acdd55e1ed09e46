package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", e.Now())
	}
}

func TestSingleProcessWait(t *testing.T) {
	e := NewEnv()
	var end float64
	e.Spawn("p", func(p *Proc) {
		p.Wait(1.5)
		p.Wait(2.5)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4.0 {
		t.Fatalf("process ended at %v, want 4.0", end)
	}
}

func TestNegativeWaitActsAsZero(t *testing.T) {
	e := NewEnv()
	var end float64
	e.Spawn("p", func(p *Proc) {
		p.Wait(-3)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		for _, spec := range []struct {
			name string
			step float64
		}{{"a", 1.0}, {"b", 1.5}} {
			name, step := spec.name, spec.step
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Wait(step)
					log = append(log, fmt.Sprintf("%s@%.1f", name, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	// At the t=3.0 tie, b resumes first: its resume event was scheduled at
	// t=1.5, before a scheduled its own at t=2.0 (FIFO by scheduling order).
	want := "a@1.0 b@1.5 a@2.0 b@3.0 a@3.0 b@4.5"
	if got := strings.Join(first, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	for i := 0; i < 5; i++ {
		if got := strings.Join(run(), " "); got != strings.Join(first, " ") {
			t.Fatalf("run %d nondeterministic: %v vs %v", i, run(), first)
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	e := NewEnv()
	var order []string
	for _, n := range []string{"x", "y", "z"} {
		name := n
		e.Spawn(name, func(p *Proc) {
			p.Wait(1)
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "xyz" {
		t.Fatalf("tie-break order = %q, want xyz", got)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEnv()
	var wokenAt float64
	sleeper := e.Spawn("sleeper", func(p *Proc) {
		p.Park("waiting for waker")
		wokenAt = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Wait(7)
		p.Env().Wake(sleeper)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt != 7 {
		t.Fatalf("woken at %v, want 7", wokenAt)
	}
}

func TestWakeBeforeParkLeavesToken(t *testing.T) {
	e := NewEnv()
	var seq []string
	var target *Proc
	target = e.Spawn("target", func(p *Proc) {
		p.Wait(5) // waker fires at t=1 while we are in timed wait? No: wake targets only parked procs.
		seq = append(seq, "pre-park")
		p.Park("token should exist")
		seq = append(seq, fmt.Sprintf("resumed@%v", p.Now()))
	})
	_ = target
	e.Spawn("waker", func(p *Proc) {
		p.Wait(6)
		p.Env().Wake(target)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "pre-park resumed@6"
	if got := strings.Join(seq, " "); got != want {
		t.Fatalf("sequence = %q, want %q", got, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv()
	e.Spawn("stuck", func(p *Proc) { p.Park("never woken") })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "never woken") {
		t.Fatalf("deadlock error %q lacks process name or reason", err)
	}
}

func TestProcessPanicIsReported(t *testing.T) {
	e := NewEnv()
	e.Spawn("boom", func(p *Proc) {
		p.Wait(1)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not propagated: %v", err)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv()
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(1)
			ticks++
		}
	})
	if err := e.RunUntil(10.5); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if err := e.RunUntil(20.5); err != nil {
		t.Fatal(err)
	}
	if ticks != 20 {
		t.Fatalf("ticks = %d after second leg, want 20", ticks)
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEnv()
	fired := false
	ev := e.At(5, func() { fired = true })
	e.At(1, func() { ev.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) { p.Wait(10) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestPSResourceSingleFlowFullRate(t *testing.T) {
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	var done float64
	e.Spawn("p", func(p *Proc) {
		r.Transfer(p, 100)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 10, 1e-9) {
		t.Fatalf("transfer completed at %v, want 10", done)
	}
}

func TestPSResourceFlowCap(t *testing.T) {
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 4)
	var done float64
	e.Spawn("p", func(p *Proc) {
		r.Transfer(p, 100)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 25, 1e-9) {
		t.Fatalf("capped transfer completed at %v, want 25", done)
	}
}

func TestPSResourceEqualSharing(t *testing.T) {
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	times := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Transfer(p, 100)
			times[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		if !almostEqual(tm, 20, 1e-9) {
			t.Fatalf("flow %d completed at %v, want 20 (shared rate)", i, tm)
		}
	}
}

func TestPSResourceStaggeredArrival(t *testing.T) {
	// Capacity 10, no cap. Flow A: 100 units at t=0. Flow B: 50 units at t=5.
	// t in [0,5): A alone at 10/s -> 50 done, 50 left.
	// t in [5,?): both at 5/s. B needs 10 s -> done t=15; A needs 10 s -> done t=15.
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	var doneA, doneB float64
	e.Spawn("a", func(p *Proc) {
		r.Transfer(p, 100)
		doneA = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Wait(5)
		r.Transfer(p, 50)
		doneB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(doneA, 15, 1e-9) || !almostEqual(doneB, 15, 1e-9) {
		t.Fatalf("doneA=%v doneB=%v, want both 15", doneA, doneB)
	}
}

func TestPSResourceRateReallocationAfterCompletion(t *testing.T) {
	// Capacity 10, no cap. A: 40 units, B: 100 units, both at t=0.
	// Shared at 5/s: A done at t=8 (B has 60 left). B alone at 10/s: done t=14.
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	var doneA, doneB float64
	e.Spawn("a", func(p *Proc) { r.Transfer(p, 40); doneA = p.Now() })
	e.Spawn("b", func(p *Proc) { r.Transfer(p, 100); doneB = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(doneA, 8, 1e-9) {
		t.Fatalf("doneA=%v, want 8", doneA)
	}
	if !almostEqual(doneB, 14, 1e-9) {
		t.Fatalf("doneB=%v, want 14", doneB)
	}
}

func TestPSResourceCapPreventsSpeedupWhenAlone(t *testing.T) {
	// With per-flow cap 3 on capacity 10: three flows run at 3 each (9 < 10),
	// so a flow finishing does not speed up the others.
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 3)
	var times [3]float64
	sizes := []float64{30, 60, 90}
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Transfer(p, sizes[i])
			times[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := [3]float64{10, 20, 30}
	for i := range times {
		if !almostEqual(times[i], want[i], 1e-9) {
			t.Fatalf("flow %d done at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestPSResourceZeroAmountIsInstant(t *testing.T) {
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	var done float64 = -1
	e.Spawn("p", func(p *Proc) {
		r.Transfer(p, 0)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Fatalf("zero transfer done at %v, want 0", done)
	}
}

func TestPSResourceAsyncFlowAwait(t *testing.T) {
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	var done float64
	e.Spawn("p", func(p *Proc) {
		f := r.StartFlow(50, nil)
		p.Wait(1) // overlap with the flow
		f.Await(p)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 5, 1e-9) {
		t.Fatalf("async flow done at %v, want 5", done)
	}
}

// Property: for any set of flow sizes started simultaneously on an uncapped
// resource, total completion time equals total work / capacity (work
// conservation of processor sharing), and flows complete in size order.
func TestPSResourceWorkConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true // skip degenerate/oversized cases
		}
		const capacity = 7.5
		e := NewEnv()
		r := NewPSResource(e, "mem", capacity, 0)
		total := 0.0
		sizes := make([]float64, len(raw))
		for i, v := range raw {
			sizes[i] = float64(v%1000) + 1 // 1..1000
			total += sizes[i]
		}
		var last float64
		times := make([]float64, len(sizes))
		for i := range sizes {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				r.Transfer(p, sizes[i])
				times[i] = p.Now()
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if !almostEqual(last, total/capacity, 1e-6*total) {
			return false
		}
		// Flows must complete in (stable) size order.
		for i := range sizes {
			for j := range sizes {
				if sizes[i] < sizes[j] && times[i] > times[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine is deterministic — identical programs produce
// identical event traces.
func TestDeterminismProperty(t *testing.T) {
	build := func(seed int64) string {
		e := NewEnv()
		var log strings.Builder
		rng := seed
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64((rng>>33)&1023) / 64.0
		}
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Wait(next())
					fmt.Fprintf(&log, "%s@%.4f;", name, p.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log.String()
	}
	f := func(seed int64) bool { return build(seed) == build(seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
