package mpi

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
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
// partitioned runs of growing and shrinking shapes and requires each
// run to report exactly what a fresh Job reports for the same config:
// nothing a run leaves in the Job's engines, arenas or ranks may leak
// into the next.
func TestJobReuseMatchesFreshJob(t *testing.T) {
	reused := &Job{}
	for _, cfg := range reuseShapes() {
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
