package sim

import (
	"strings"
	"testing"
)

func nop(any) {}

// TestScheduleAllocationFree pins the slab event queue's core property:
// once the slab and heap have warmed up, scheduling and firing events —
// through both the heap and the now-queue paths — performs zero heap
// allocations.
func TestScheduleAllocationFree(t *testing.T) {
	e := NewEnv()
	var err error
	tick := func() {
		e.After(1, nop, nil)    // heap path
		e.After(0.25, nop, nil) // heap path, fires first
		e.After(0, nop, nil)    // now-queue path
		if err == nil {
			err = e.RunBefore(e.Now() + 2)
		}
	}
	for i := 0; i < 4; i++ {
		tick() // warm the slab, free list, heap, and now-queue
	}
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, tick); a != 0 {
		t.Fatalf("schedule+dispatch allocates %v objects/op, want 0", a)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestTimedWaitAllocationFree pins the typed-event fast path: a process
// doing timed waits does not allocate per wait (no closures, no event
// objects) once its environment is warm.
func TestTimedWaitAllocationFree(t *testing.T) {
	e := NewEnv()
	resume := make(chan struct{})
	release := make(chan struct{})
	e.Spawn("waiter", func(p *Proc) {
		for range resume {
			p.Wait(1)
			release <- struct{}{}
		}
	})
	// Start the process: it blocks reading resume, which parks its
	// goroutine outside virtual time. Drive one wait per measured run.
	go func() { _ = e.Run() }()
	step := func() {
		resume <- struct{}{}
		<-release
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("Proc.Wait allocates %v objects/op, want 0", a)
	}
	close(resume)
}

// TestCancelAllocationFree verifies Cancel releases slots for immediate
// reuse and the cancel-reschedule churn of processor sharing stays
// allocation-free.
func TestCancelAllocationFree(t *testing.T) {
	e := NewEnv()
	churn := func() {
		ev := e.After(5, nop, nil)
		ev.Cancel()
	}
	churn()
	if a := testing.AllocsPerRun(100, churn); a != 0 {
		t.Fatalf("cancel churn allocates %v objects/op, want 0", a)
	}
}

// TestWakePairOrder verifies the batched pair wake resumes both parked
// processes in argument order at the same timestamp, exactly like two
// consecutive Wake calls.
func TestWakePairOrder(t *testing.T) {
	e := NewEnv()
	var order []string
	mk := func(name string) *Proc {
		return e.Spawn(name, func(p *Proc) {
			p.Park("pair test")
			order = append(order, name)
		})
	}
	a := mk("a")
	b := mk("b")
	e.Spawn("waker", func(p *Proc) {
		p.Wait(3)
		p.Env().WakePair(a, b)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "ab" {
		t.Fatalf("pair wake order = %q, want ab", got)
	}
}

// TestWakePairWithTokens verifies the non-parked halves of a pair wake
// degrade to wake tokens, like plain Wake.
func TestWakePairWithTokens(t *testing.T) {
	e := NewEnv()
	var resumedAt, tokenAt float64
	a := e.Spawn("parked", func(p *Proc) {
		p.Park("pair")
		resumedAt = p.Now()
	})
	b := e.Spawn("busy", func(p *Proc) {
		p.Wait(10) // in a timed wait when the pair wake fires
		p.Park("token expected")
		tokenAt = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Wait(2)
		p.Env().WakePair(a, b)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedAt != 2 {
		t.Fatalf("parked half resumed at %v, want 2", resumedAt)
	}
	if tokenAt != 10 {
		t.Fatalf("busy half consumed its token at %v, want 10", tokenAt)
	}
}

// TestCancelNowQueueEvent covers cancelling an event that sits in the
// now-queue: it must not fire, and Cancelled must report true.
func TestCancelNowQueueEvent(t *testing.T) {
	e := NewEnv()
	fired := false
	var ev Event
	e.Spawn("canceller", func(p *Proc) {
		ev = e.After(0, func(any) { fired = true }, nil) // same timestamp: now-queue
		ev.Cancel()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled now-queue event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false for cancelled now-queue event")
	}
}

// TestEnvPoolReuse verifies a reset environment comes back at time zero
// and produces identical results, reusing its slab and process structs.
func TestEnvPoolReuse(t *testing.T) {
	run := func(e *Env) float64 {
		var end float64
		e.Spawn("p", func(p *Proc) {
			p.Wait(1.5)
			r := NewPSResource(e, "mem", 10, 0)
			r.StartFlow(30, nil, nil).Await(p)
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	e := NewEnv()
	first := run(e)
	slots, proc := len(e.slots), e.procs[0]
	e.Reset()
	if e.Now() != 0 || len(e.procs) != 0 || e.Counters() != (Counters{}) {
		t.Fatalf("env not rewound: now=%v procs=%d counters=%+v", e.Now(), len(e.procs), e.Counters())
	}
	if second := run(e); second != first {
		t.Fatalf("rerun produced %v, want %v", second, first)
	}
	if len(e.slots) != slots || e.procs[0] != proc {
		t.Fatalf("rerun grew the slab to %d slots (was %d) or built a new process", len(e.slots), slots)
	}
}

// TestResetUnwindsFailedRun pins the one recycle path: Reset rewinds a
// deadlocked or panicked environment too. Every blocked process, parked
// or waiting, unwinds out of its function and runs its deferred calls;
// a deferred call that blocks again unwinds instead of parking. The
// same environment then reruns a job exactly as a fresh one does, on
// the failed run's coroutines.
func TestResetUnwindsFailedRun(t *testing.T) {
	job := func(e *Env) (float64, Counters) {
		r := NewPSResource(e, "mem", 10, 0)
		for i := 0; i < 3; i++ {
			e.Spawn("p", func(p *Proc) {
				p.Wait(float64(i))
				r.StartFlow(30, nil, nil).Await(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), e.Counters()
	}
	wantEnd, wantWork := job(NewEnv())
	for _, c := range []struct {
		name  string
		spawn func(e *Env, unwound *int)
	}{
		{"deadlock", func(e *Env, unwound *int) {
			e.Spawn("stuck", func(p *Proc) {
				defer func() {
					*unwound++
					p.Park("again")
				}()
				p.Wait(1)
				p.Park("forever")
			})
			e.Spawn("done", func(p *Proc) { p.Wait(2) })
			e.Spawn("stuck late", func(p *Proc) {
				defer func() { *unwound++ }()
				p.Wait(3)
				p.Park("forever")
			})
		}},
		{"panic", func(e *Env, unwound *int) {
			e.Spawn("parked", func(p *Proc) {
				defer func() { *unwound++ }()
				p.Park("forever")
			})
			e.Spawn("waiting", func(p *Proc) {
				defer func() { *unwound++ }()
				p.Wait(5)
			})
			e.Spawn("boom", func(p *Proc) {
				p.Wait(1)
				panic("kaboom")
			})
		}},
	} {
		e := NewEnv()
		unwound := 0
		c.spawn(e, &unwound)
		if err := e.Run(); err == nil {
			t.Fatalf("%s: run reported success", c.name)
		}
		coros := len(e.coros.list)
		e.Reset()
		if want := coros - 1; unwound != want {
			t.Errorf("%s: %d processes unwound, want %d", c.name, unwound, want)
		}
		if e.Now() != 0 || len(e.procs) != 0 || len(e.heap) != 0 || len(e.nowq) != 0 || e.failure != nil {
			t.Fatalf("%s: env not rewound: now=%v procs=%d heap=%d nowq=%d failure=%v",
				c.name, e.Now(), len(e.procs), len(e.heap), len(e.nowq), e.failure)
		}
		if end, work := job(e); end != wantEnd || work != wantWork {
			t.Errorf("%s: rerun ended at %v with %+v, a fresh env at %v with %+v",
				c.name, end, work, wantEnd, wantWork)
		}
		if len(e.coros.list) != coros {
			t.Errorf("%s: rerun built %d coroutines, want the %d kept", c.name, len(e.coros.list), coros)
		}
	}
}

// TestRetimeFlowKeepsOrder pins the determinism contract of in-place
// retiming: a retimed flow event consumes a fresh sequence number, so
// it fires after an event scheduled at the same instant before the
// retime — exactly as the original cancel+reschedule engine behaved.
func TestRetimeFlowKeepsOrder(t *testing.T) {
	e := NewEnv()
	r := NewPSResource(e, "mem", 10, 0)
	var order []string
	e.Spawn("a", func(p *Proc) {
		r.StartFlow(50, nil, nil).Await(p) // alone until t=2, then shared
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		p.Wait(2)
		// This timer lands exactly at a's final completion time t=7. When
		// b finishes at t=6, a's completion event is retimed to t=7 with a
		// FRESH sequence number — later than the timer's — so the timer
		// must fire first, exactly as the cancel+reschedule engine did.
		e.At(7, func(any) { order = append(order, "timer") }, nil)
		r.StartFlow(20, nil, nil).Await(p)
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// a: alone until t=2 (30 left), shared at rate 5 until b finishes at
	// t=6 (10 left), alone again at rate 10 -> done at t=7.
	want := "b,timer,a"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("completion order = %q, want %q", got, want)
	}
}
