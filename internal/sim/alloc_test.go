package sim

import (
	"strings"
	"testing"
)

func nop() {}

// TestScheduleAllocationFree pins the slab event queue's core property:
// once the slab and heap have warmed up, scheduling and firing events —
// through both the heap and the now-queue paths — performs zero heap
// allocations.
func TestScheduleAllocationFree(t *testing.T) {
	e := NewEnv()
	var err error
	tick := func() {
		e.After(1, nop)    // heap path
		e.After(0.25, nop) // heap path, fires first
		e.After(0, nop)    // now-queue path
		if err == nil {
			err = e.RunUntil(e.Now() + 2)
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
		ev := e.After(5, nop)
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
		ev = e.After(0, func() { fired = true }) // same timestamp: now-queue
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

// TestEnvPoolReuse verifies a released environment comes back reset and
// produces identical results, reusing its slab and process structs.
func TestEnvPoolReuse(t *testing.T) {
	run := func(e *Env) float64 {
		var end float64
		e.Spawn("p", func(p *Proc) {
			p.Wait(1.5)
			r := NewPSResource(e, "mem", 10, 0)
			r.Transfer(p, 30)
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	e := AcquireEnv()
	first := run(e)
	ReleaseEnv(e)
	e2 := AcquireEnv() // may or may not be the same object; both must work
	defer ReleaseEnv(e2)
	if e2.Now() != 0 || len(e2.procs) != 0 {
		t.Fatalf("pooled env not reset: now=%v procs=%d", e2.Now(), len(e2.procs))
	}
	if second := run(e2); second != first {
		t.Fatalf("pooled rerun produced %v, want %v", second, first)
	}
}

// TestReleaseEnvRejectsDirtyEnv verifies failed runs are not recycled:
// a deadlocked environment keeps parked goroutines alive and must not
// reach the pool.
func TestReleaseEnvRejectsDirtyEnv(t *testing.T) {
	e := NewEnv()
	e.Spawn("stuck", func(p *Proc) { p.Park("forever") })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	if e.clean() {
		t.Fatal("deadlocked env reported clean")
	}
	ReleaseEnv(e) // must be a no-op; nothing to assert beyond not panicking
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
		r.Transfer(p, 50) // alone until t=2, then shared
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		p.Wait(2)
		// This timer lands exactly at a's final completion time t=7. When
		// b finishes at t=6, a's completion event is retimed to t=7 with a
		// FRESH sequence number — later than the timer's — so the timer
		// must fire first, exactly as the cancel+reschedule engine did.
		e.At(7, func() { order = append(order, "timer") })
		r.Transfer(p, 20)
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
