package sim

import "testing"

// The scheduler microbenchmarks pin the engine's hot paths in isolation:
// heap events, now-queue wakes, timed process waits, processor-sharing
// retime churn, and reused whole-run turnaround. scripts/bench_compare.sh
// gates these in CI against the parent commit, or against the recorded
// bench/baseline.bench.

// BenchmarkScheduleFire measures pure event throughput through the heap:
// schedule a future callback, fire it, recycle the slot.
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, nop, nil)
		if err := e.RunBefore(e.Now() + 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNowQueueFire measures the FIFO fast path for events at the
// current timestamp (the wake pattern of blocking MPI primitives).
func BenchmarkNowQueueFire(b *testing.B) {
	e := NewEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(0, nop, nil)
		if err := e.RunBefore(e.Now() + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimedWait measures a full process wait cycle: typed resume
// event plus the two coroutine switches.
func BenchmarkTimedWait(b *testing.B) {
	e := NewEnv()
	n := b.N
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPSResourceChurn measures the processor-sharing retime storm:
// staggered flows join and leave a shared resource, re-timing every
// sibling's completion event at each set change.
func BenchmarkPSResourceChurn(b *testing.B) {
	const flows = 8
	e := NewEnv()
	r := NewPSResource(e, "mem", 100, 0)
	n := b.N
	for i := 0; i < flows; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Wait(float64(i)) // stagger arrivals
			for j := 0; j < n; j++ {
				r.StartFlow(100, nil, nil).Await(p)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPooledRun measures whole-run turnaround on a reused
// environment: spawn processes, run to completion, Reset. This is the
// per-job overhead every campaign worker pays.
func BenchmarkPooledRun(b *testing.B) {
	e := NewEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 8; p++ {
			e.Spawn("p", func(p *Proc) {
				p.Wait(1)
				p.Wait(1)
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		e.Reset()
	}
}
