package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// pooledRun runs one small job on a pooled environment: procs processes
// that wait, park and wake each other, so every coroutine both yields
// and resumes several times before it finishes.
func pooledRun(t *testing.T, procs int) {
	t.Helper()
	e := AcquireEnv()
	var parked []*Proc
	for i := 0; i < procs; i++ {
		parked = append(parked, e.Spawn("p", func(p *Proc) {
			p.Wait(1)
			p.Park("coro test")
			p.Wait(0.5)
		}))
	}
	e.Spawn("waker", func(p *Proc) {
		p.Wait(2)
		for _, q := range parked {
			p.Env().Wake(q)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ReleaseEnv(e)
}

// TestDroppedEnvsStopTheirCoroutines pins the coroutine lifetime
// contract: finished processes keep idle coroutines for reuse, and an
// environment that becomes garbage — dropped from envPool by the GC, or
// never pooled — stops them, so no goroutine outlives its environment.
func TestDroppedEnvsStopTheirCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		pooledRun(t, 8+i%5) // oscillating shapes grow the proc lists
	}
	for i := 0; i < 20; i++ {
		e := NewEnv() // never pooled: dropped straight to the GC
		e.Spawn("p", func(p *Proc) { p.Wait(1) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const slack = 4
	deadline := time.Now().Add(10 * time.Second)
	for {
		// sync.Pool needs two collections to drop its entries; cleanups
		// then stop the coroutines on the cleanup goroutine.
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after dropping every environment, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPooledSpawnAllocationFree pins coroutine reuse: once an
// environment has run a job shape, rerunning it spawns its processes on
// the finished processes' coroutines and allocates nothing.
func TestPooledSpawnAllocationFree(t *testing.T) {
	e := NewEnv()
	body := func(p *Proc) {
		p.Wait(1)
		p.Wait(1)
	}
	run := func() {
		for i := 0; i < 8; i++ {
			e.Spawn("p", body)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !e.clean() {
			t.Fatal("run left the environment dirty")
		}
		e.reset()
	}
	run()
	if a := testing.AllocsPerRun(50, run); a != 0 {
		t.Fatalf("pooled spawn+run allocates %v objects/op, want 0", a)
	}
}

// TestPanicThenReuse verifies a panicking process surfaces as the
// environment's failure with its name, and that the coroutines of the
// processes that finished normally in that run stay usable: the failed
// environment is abandoned, but a fresh pooled run is unaffected.
func TestPanicThenReuse(t *testing.T) {
	e := NewEnv()
	e.Spawn("fine", func(p *Proc) { p.Wait(1) })
	e.Spawn("boom", func(p *Proc) {
		p.Wait(2)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `"boom" panicked: kaboom`) {
		t.Fatalf("Run() = %v, want the panic of process boom", err)
	}
	if e.failure == nil || e.clean() {
		t.Fatal("panicked run must leave Env.failure set and the env dirty")
	}
	pooledRun(t, 3)
}
