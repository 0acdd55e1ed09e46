package mpi

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

var reusePayload = make([]float64, 32)

// reuseBody exercises every piece of state a Job recycles — compute
// phases on the machine model, eager and rendezvous messages across
// nodes, and a collective — without allocating anything of its own, so
// the allocations of a run are the runtime's alone.
func reuseBody(r *Rank) {
	n := r.Size()
	right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
	r.Compute(machine.Phase{Name: "reuse", FlopsScalar: 1 * units.M, BytesMem: 1 * units.M})
	for i := 0; i < 4; i++ {
		r.Sendrecv(right, 3, reusePayload, 48*1024, left, 3)  // eager
		r.Sendrecv(left, 4, reusePayload, 128*1024, right, 4) // rendezvous
	}
	r.Allreduce(reusePayload[:2], 16, OpSum)
}

// deadlockBody does reuseBody's work and then blocks every rank for
// good: rank 0 receives a message nobody sends, and the others wait for
// it in a barrier.
func deadlockBody(r *Rank) {
	reuseBody(r)
	if r.ID() == 0 {
		r.Recv(r.Size()-1, 99)
	}
	r.Barrier()
}

// panicBody fails a run midway: rank 0 panics after a compute phase
// while the other ranks are computing or exchanging, so the run stops
// with flows, messages and mail in flight.
func panicBody(r *Rank) {
	if r.ID() == 0 {
		r.Compute(machine.Phase{Name: "fail", FlopsScalar: 1 * units.M})
		panic("rank 0 fails")
	}
	reuseBody(r)
}

// reuseShapes are the job shapes the reuse tests cycle through: serial
// and partitioned, growing and shrinking in nodes.
func reuseShapes() []Config {
	cpn := machine.ClusterA().CPU.CoresPerNode()
	cfg := func(nodes, workers int) Config {
		return Config{Cluster: machine.ClusterA(), Net: netsim.HDR100(),
			Ranks: nodes * cpn, SimWorkers: workers}
	}
	return []Config{cfg(4, 1), cfg(4, 2), cfg(1, 1), cfg(2, 2)}
}

// mallocsOf returns the heap objects allocated while one Run of cfg
// executes.
func mallocsOf(t *testing.T, cfg Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg, reuseBody); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestJobsSurviveGC pins that recycled simulator state outlives garbage
// collections: a job run right after two forced collections allocates
// about what the same job allocates warm. Were idle Jobs held where the
// collector empties them, every idle coroutine, rank and resource would
// be rebuilt and the count would rise a hundredfold.
func TestJobsSurviveGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per goroutine; budgets only hold without -race")
	}
	for _, cfg := range reuseShapes() {
		for i := 0; i < 3; i++ {
			mallocsOf(t, cfg) // reach the shape's high-water capacities
		}
		warm := mallocsOf(t, cfg)
		runtime.GC()
		runtime.GC()
		cold := mallocsOf(t, cfg)
		t.Logf("ranks=%d workers=%d: %d allocs warm, %d after GC", cfg.Ranks, cfg.SimWorkers, warm, cold)
		if cold > 2*warm {
			t.Errorf("ranks=%d workers=%d: %d allocs after GC, more than twice the %d warm",
				cfg.Ranks, cfg.SimWorkers, cold, warm)
		}
	}
}

// TestJobReuseMatchesFreshJob drives one Job through serial and
// partitioned runs of growing and shrinking shapes, each after a
// deadlocked and a panicked run of the same shape, and requires each
// run to report exactly what a fresh Job reports for the same config:
// nothing a run, failed or clean, leaves in the Job's engines, arenas
// or ranks may leak into the next.
func TestJobReuseMatchesFreshJob(t *testing.T) {
	reused := &Job{}
	for _, cfg := range reuseShapes() {
		for _, body := range []func(*Rank){deadlockBody, panicBody} {
			if _, err := reused.run(cfg, body); err == nil {
				t.Fatalf("ranks=%d workers=%d: failing body reported success", cfg.Ranks, cfg.SimWorkers)
			}
		}
		got, err := reused.run(cfg, reuseBody)
		if err != nil {
			t.Fatalf("reused Job, ranks=%d workers=%d: %v", cfg.Ranks, cfg.SimWorkers, err)
		}
		want, err := (&Job{}).run(cfg, reuseBody)
		if err != nil {
			t.Fatalf("fresh Job, ranks=%d workers=%d: %v", cfg.Ranks, cfg.SimWorkers, err)
		}
		if !reflect.DeepEqual(got.Usage, want.Usage) || got.Wall != want.Wall ||
			got.Sim != want.Sim || got.Psim != want.Psim || got.Partitioned != want.Partitioned {
			t.Errorf("ranks=%d workers=%d: reused Job reported\n%+v\nfresh Job\n%+v",
				cfg.Ranks, cfg.SimWorkers, got, want)
		}
	}
}

// TestFailedRunsReleaseCoroutines runs deadlocking and panicking
// 288-rank jobs through Run, serially and on the partitioned engine,
// and requires them to leave nothing behind: the goroutine count
// returns to its baseline, and the live heap grows by less than what
// one Job holds, since a failed run returns its Job to the idle list
// like a clean one.
func TestFailedRunsReleaseCoroutines(t *testing.T) {
	const n = 2 // failures of each kind per shape
	shapes := reuseShapes()[:2]
	held := &Job{}
	before := liveHeap()
	for _, cfg := range shapes {
		if _, err := held.run(cfg, reuseBody); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	one := after - min(after, before)
	runtime.KeepAlive(held)
	fail := func(cfg Config) {
		for _, body := range []func(*Rank){deadlockBody, panicBody} {
			if _, err := Run(cfg, body); err == nil {
				t.Fatalf("ranks=%d workers=%d: failing body reported success", cfg.Ranks, cfg.SimWorkers)
			}
		}
	}
	// One failure of each kind brings the idle Job that the failing runs
	// take to their high-water marks; the baseline follows it.
	for _, cfg := range shapes {
		fail(cfg)
	}
	baseG, base := runtime.NumGoroutine(), liveHeap()
	for _, cfg := range shapes {
		for i := 0; i < n; i++ {
			fail(cfg)
		}
	}
	// Partitioned runs' workers exit after their run returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseG && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	after = liveHeap()
	grown := after - min(after, base)
	t.Logf("%d failed runs: %d goroutines (baseline %d), live heap grew %.1f MB; one Job holds %.1f MB",
		4*n, runtime.NumGoroutine(), baseG, float64(grown)/(1<<20), float64(one)/(1<<20))
	if g := runtime.NumGoroutine(); g > baseG {
		t.Errorf("%d goroutines after %d failed runs, baseline %d", g, 4*n, baseG)
	}
	if grown > one {
		t.Errorf("live heap grew %d B over %d failed runs, more than the %d B one Job holds", grown, 4*n, one)
	}
}

// TestIdleJobsBounded runs more jobs at once than the free list holds
// and checks that afterwards at most GOMAXPROCS Jobs sit idle: the
// surplus is dropped to the collector, not kept.
func TestIdleJobsBounded(t *testing.T) {
	bound := runtime.GOMAXPROCS(0)
	n := 2*bound + 1
	// Rank 0 of every job holds its run until all n are running, so n
	// Jobs are checked out at once.
	var started sync.WaitGroup
	started.Add(n)
	body := func(r *Rank) {
		if r.ID() == 0 {
			started.Done()
			started.Wait()
		}
		r.Barrier()
	}
	var done sync.WaitGroup
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := Run(Config{Cluster: machine.ClusterA(), Ranks: 4}, body); err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	idleJobs.Lock()
	idle := len(idleJobs.list)
	idleJobs.Unlock()
	if idle != bound {
		t.Errorf("%d Jobs idle after %d concurrent runs, want the bound %d", idle, n, bound)
	}
}

// arenaBody is a halo exchange (Isend/Irecv both ways, Waitall) and an
// Allreduce, repeated, with payloads large enough that the protocol and
// payload arenas dominate what a run allocates.
func arenaBody(r *Rank) {
	n := r.Size()
	right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
	for i := 0; i < 8; i++ {
		reqs := [4]*Request{
			r.Irecv(left, 5), r.Irecv(right, 6),
			r.Isend(right, 5, arenaPayload, 48*1024),
			r.Isend(left, 6, arenaPayload, 128*1024),
		}
		r.Waitall(reqs[:])
		r.Allreduce(arenaPayload[:64], 512, OpSum)
	}
}

var arenaPayload = make([]float64, 512)

// bytesOf returns the heap bytes allocated while j runs cfg once.
func bytesOf(t *testing.T, j *Job, cfg Config, body func(*Rank)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := j.run(cfg, body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecycledJobReusesArenas pins that a Job rewinds its arenas
// instead of dropping them: the second run of the same body on the same
// Job allocates under 1% of the bytes of its first, serially and on the
// partitioned engine.
func TestRecycledJobReusesArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per goroutine; budgets only hold without -race")
	}
	cpn := machine.ClusterA().CPU.CoresPerNode()
	for _, workers := range []int{1, 2} {
		cfg := Config{Cluster: machine.ClusterA(), Net: netsim.HDR100(),
			Ranks: 2 * cpn, SimWorkers: workers}
		j := &Job{}
		first := bytesOf(t, j, cfg, arenaBody)
		second := bytesOf(t, j, cfg, arenaBody)
		t.Logf("workers=%d: first run %d B, second run %d B", workers, first, second)
		if second*100 >= first {
			t.Errorf("workers=%d: second run allocated %d B, not under 1%% of the first run's %d B",
				workers, second, first)
		}
	}
}

// TestRetainedBytesCapped runs a job whose payload high-water exceeds
// its Job's arena budget: the Job keeps at most the budget, and its
// part arenas' chunks are all charged to it.
func TestRetainedBytesCapped(t *testing.T) {
	const budget = 1 << 20
	j := &Job{budget: sim.NewArenaBudget(budget)}
	if _, err := j.run(Config{Cluster: machine.ClusterA(), Net: netsim.HDR100(), Ranks: 2}, func(r *Rank) {
		for i := 0; i < 4; i++ {
			r.arena().floats.Slice(budget / 8 / 2)
		}
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for i := range j.parts {
		pa := &j.parts[i]
		kept += pa.envs.Bytes() + pa.reqs.Bytes() + pa.msgs.Bytes() +
			pa.floats.Bytes() + pa.slices.Bytes() + pa.msgPtrs.Bytes()
	}
	if b := j.retainedBytes(); b > budget || b < kept {
		t.Errorf("job retains %d B (%d B in its part arenas), want at most the %d B budget and at least its arenas",
			b, kept, budget)
	}
}

// TestRunMemoryBounded runs halo exchanges whose traffic is far above
// the Job's arena budget, once and then four times as long, sampling
// the live heap during each run. Past the budget, payloads and protocol
// objects go to the GC once the run drops them, so the live heap stays
// bounded instead of growing with the run's length.
func TestRunMemoryBounded(t *testing.T) {
	const budget = 1 << 20
	cpn := machine.ClusterA().CPU.CoresPerNode()
	for _, c := range []struct {
		ranks, workers, floats, steps int
	}{
		{ranks: 4, workers: 1, floats: 16 << 10, steps: 32},
		{ranks: cpn + 2, workers: 2, floats: 256, steps: 128},
	} {
		var growth [2]uint64
		var traffic uint64
		for k, steps := range []int{c.steps, 4 * c.steps} {
			payload := make([]float64, c.floats)
			var peak uint64
			body := func(r *Rank) {
				n := r.Size()
				right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
				for i := 0; i < steps; i++ {
					reqs := [4]*Request{
						r.Irecv(left, 5), r.Irecv(right, 6),
						r.Isend(right, 5, payload, 48*1024),
						r.Isend(left, 6, payload, 48*1024),
					}
					r.Waitall(reqs[:])
					if r.ID() == 0 && i%16 == 15 {
						peak = max(peak, liveHeap())
					}
				}
			}
			j := &Job{budget: sim.NewArenaBudget(budget)}
			base := liveHeap()
			if _, err := j.run(Config{Cluster: machine.ClusterA(), Net: netsim.HDR100(),
				Ranks: c.ranks, SimWorkers: c.workers}, body); err != nil {
				t.Fatal(err)
			}
			if b := j.retainedBytes(); b > budget {
				t.Errorf("job keeps %d B, above its %d B budget", b, budget)
			}
			growth[k] = peak - min(peak, base)
			traffic = uint64(steps * c.ranks * 2 * c.floats * 8)
		}
		t.Logf("%d ranks, workers=%d: live heap grew %.1f MB in %d steps, %.1f MB in %d steps (%d MB of payload traffic)",
			c.ranks, c.workers, float64(growth[0])/(1<<20), c.steps,
			float64(growth[1])/(1<<20), 4*c.steps, traffic>>20)
		if growth[1] > growth[0]+traffic/8 {
			t.Errorf("%d ranks, workers=%d: live heap grew %d B in the long run, %d B in the short one: it grows with the run's %d B of traffic",
				c.ranks, c.workers, growth[1], growth[0], traffic)
		}
	}
}

// liveHeap returns the heap bytes live after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIdleJobsByteBound checks the free list's byte bound: a Job whose
// arenas would take the idle Jobs' chunks past it is dropped, whatever
// the list's length bound allows.
func TestIdleJobsByteBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Config{Cluster: machine.ClusterA(), Net: netsim.HDR100(), Ranks: 8}
	var jobs [3]*Job
	for i := range jobs {
		jobs[i] = &Job{}
		if _, err := jobs[i].run(cfg, arenaBody); err != nil {
			t.Fatal(err)
		}
	}
	b := jobs[0].retainedBytes()
	if b == 0 {
		t.Fatal("a job kept no arena chunks")
	}
	l := jobList{maxBytes: 2*b + b/2}
	for _, j := range jobs {
		l.put(j)
	}
	if len(l.list) != 2 || l.bytes != 2*b {
		t.Fatalf("%d Jobs idle keeping %d B, want 2 keeping %d B", len(l.list), l.bytes, 2*b)
	}
	if j := l.get(); j != jobs[1] || l.bytes != b {
		t.Errorf("get returned a Job other than the last idled, or left %d B counted, want %d", l.bytes, b)
	}
}

// TestPoisonReachesLeakedPayload checks the payload poisoning the
// goldens rely on: a payload leaked out of a run reads NaN once the run
// has returned.
func TestPoisonReachesLeakedPayload(t *testing.T) {
	var leaked []float64
	if _, err := Run(Config{Cluster: machine.ClusterA(), Ranks: 2}, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{1, 2}, 16)
		} else {
			leaked = r.Recv(0, 1).Data
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(leaked[0]) || !math.IsNaN(leaked[1]) {
		t.Errorf("leaked payload reads %v after the run, want NaN", leaked)
	}
}
