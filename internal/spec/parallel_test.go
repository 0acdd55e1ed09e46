package spec_test

import (
	"sync"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// parityWorkers are the worker counts whose output must be byte-identical
// to the serial engine. 2 and 4 exercise partial partition/worker ratios;
// 8 saturates (and exceeds, on small node counts) the partition count.
var parityWorkers = []int{2, 4, 8}

// parityJobs builds one multi-node job per registered kernel per paper
// cluster: ranks span four nodes (three full nodes plus a one-rank
// straggler node) so partition mail, window barriers, and uneven
// partition load are all exercised, while SimSteps 1 keeps the matrix
// fast. All nine kernels appear because their communication patterns
// stress different protocol paths (rendezvous wavefronts, halo
// exchanges, large allreduces, alltoall).
func parityJobs(t *testing.T) []spec.RunSpec {
	t.Helper()
	// The bench registry is process-global and other tests register
	// synthetic kernels (e.g. "always-invalid"); only the paper's
	// kernels carry full Table 1 metadata, so filter on it.
	var kernels []string
	for _, b := range bench.All() {
		if b.LOC > 0 {
			kernels = append(kernels, b.Name)
		}
	}
	var jobs []spec.RunSpec
	for _, cname := range []string{"ClusterA", "ClusterB"} {
		cs := machine.MustGet(cname)
		ranks := 3*cs.CPU.CoresPerNode() + 1
		for _, b := range kernels {
			jobs = append(jobs, spec.RunSpec{
				Benchmark: b, Class: bench.Tiny,
				Cluster: cs, Ranks: ranks,
				Options:   bench.Options{SimSteps: 1},
				KeepTrace: true,
			})
		}
	}
	return jobs
}

// TestParallelEngineParity runs every parity job serially and under the
// partitioned engine at 2, 4, and 8 workers, and demands byte-identical
// fingerprints — the full event timeline, per-rank totals, and aggregate
// usage down to the last ULP. This is the determinism contract of
// internal/sim/psim: worker count selects wall-clock strategy only.
// Every partitioned run must hand at least one window to the workers,
// so the concurrent path stays under the race detector even though the
// engine runs narrow windows inline.
func TestParallelEngineParity(t *testing.T) {
	for _, rs := range parityJobs(t) {
		rs := rs
		t.Run(rs.Benchmark+"_"+rs.Cluster.Name, func(t *testing.T) {
			t.Parallel()
			serial, err := spec.Run(rs)
			if err != nil {
				t.Fatal(err)
			}
			want := renderDeterminism(serial, true)
			for _, w := range parityWorkers {
				prs := rs
				prs.SimWorkers = w
				res, err := spec.Run(prs)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got := renderDeterminism(res, true); got != want {
					t.Errorf("workers=%d diverged from serial engine\n%s",
						w, firstDiff(want, got))
				}
				if res.Psim.Dispatched < 1 {
					t.Errorf("workers=%d: no window dispatched to workers (%d windows)",
						w, res.Psim.Windows)
				}
			}
		})
	}
}

// TestParallelEngineStress oscillates worker counts across back-to-back
// runs of the same jobs under -race, exercising the reuse of recycled
// Jobs and their engines: a serial run must leave no state behind that corrupts a
// following partitioned run and vice versa, and concurrent partition
// execution must be free of data races: every partitioned run must
// dispatch at least one window to its workers. Fingerprints are checked
// against the first run of each job.
func TestParallelEngineStress(t *testing.T) {
	jobs := []spec.RunSpec{
		{Benchmark: "tealeaf", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 3*72 + 1,
			Options: bench.Options{SimSteps: 1}, KeepTrace: true},
		{Benchmark: "soma", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterB"), Ranks: 3*104 + 1,
			Options: bench.Options{SimSteps: 1}, KeepTrace: true},
	}
	workerSeq := []int{0, 8, 1, 8, 4, 8, 0, 2, 8}
	var mu sync.Mutex
	want := map[string]string{}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, w := range workerSeq {
				rs := jobs[(g+i)%len(jobs)]
				rs.SimWorkers = w
				res, err := spec.Run(rs)
				if err != nil {
					t.Errorf("goroutine %d workers=%d: %v", g, w, err)
					return
				}
				if w > 1 && res.Psim.Dispatched < 1 {
					t.Errorf("goroutine %d: %s at workers=%d dispatched no window",
						g, rs.Benchmark, w)
				}
				got := renderDeterminism(res, true)
				mu.Lock()
				if prev, ok := want[rs.Benchmark]; !ok {
					want[rs.Benchmark] = got
				} else if got != prev {
					t.Errorf("goroutine %d: %s at workers=%d diverged from first run\n%s",
						g, rs.Benchmark, w, firstDiff(prev, got))
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}
