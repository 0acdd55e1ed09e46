package spec_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite determinism golden files")

// goldenJobs are the runs whose exact event-by-event schedules are pinned
// by golden files recorded with the pre-optimization engine. The full
// trace timeline is the scheduler's observable output: any change to
// event (time, seq) ordering reorders Record calls and shows up as a
// diff. The set covers the protocol paths that stress the scheduler
// differently: a rendezvous wavefront chain, a memory-bound halo code, a
// large-payload allreduce, and multi-node jobs exercising the interconnect
// and the hierarchical allreduce. hpgmgfv_A8 pins the multigrid kernel's
// checks, which every golden also records; sphexa_A8 likewise pins the
// SPH density and force passes through rank 0's checks.
func goldenJobs() []struct {
	name string
	rs   spec.RunSpec
	full bool // record the full event list, not just per-kind sums
} {
	return []struct {
		name string
		rs   spec.RunSpec
		full bool
	}{
		{"minisweep_A8", spec.RunSpec{Benchmark: "minisweep", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 8,
			Options: bench.Options{SimSteps: 1}, KeepTrace: true}, true},
		{"tealeaf_A6", spec.RunSpec{Benchmark: "tealeaf", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 6,
			Options: bench.Options{SimSteps: 2}, KeepTrace: true}, true},
		{"soma_B8", spec.RunSpec{Benchmark: "soma", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterB"), Ranks: 8,
			Options: bench.Options{SimSteps: 1}, KeepTrace: true}, true},
		{"hpgmgfv_A8", spec.RunSpec{Benchmark: "hpgmgfv", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 8,
			Options: bench.Options{SimSteps: 2}, KeepTrace: true}, true},
		{"sphexa_A8", spec.RunSpec{Benchmark: "sph-exa", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 8,
			Options: bench.Options{SimSteps: 2}, KeepTrace: true}, true},
		{"lbm_A72", spec.RunSpec{Benchmark: "lbm", Class: bench.Small,
			Cluster: machine.MustGet("ClusterA"), Ranks: 72,
			Options: bench.Options{SimSteps: 1}}, false},
		{"cloverleaf_B104", spec.RunSpec{Benchmark: "cloverleaf", Class: bench.Small,
			Cluster: machine.MustGet("ClusterB"), Ranks: 104,
			Options: bench.Options{SimSteps: 1}}, false},
	}
}

// renderDeterminism produces the canonical text fingerprint of a run.
// Floats print with %.17g so any ULP-level timing drift is a diff. Rank
// 0's checks pin the kernel's own numerics alongside the schedule.
func renderDeterminism(res spec.RunResult, full bool) string {
	var b strings.Builder
	u := res.RawUsage
	fmt.Fprintf(&b, "wall=%.17g energy=%.17g flops=%.17g mem=%.17g\n",
		u.Wall, u.TotalEnergy(), u.FlopsScalar+u.FlopsSIMD, u.BytesMem)
	for _, c := range res.Report.Checks {
		fmt.Fprintf(&b, "check %q %.17g\n", c.Name, c.Value)
	}
	rec := res.Trace
	for rank := 0; rank < rec.Ranks(); rank++ {
		fmt.Fprintf(&b, "rank %d total=%.17g\n", rank, rec.RankTotal(rank))
	}
	if full {
		for _, ev := range rec.Events() {
			fmt.Fprintf(&b, "%d %s %.17g %.17g %d\n",
				ev.Rank, ev.Kind, ev.Start, ev.End, ev.Peer)
		}
	}
	return b.String()
}

// TestDeterminismGolden asserts the scheduler replays the exact event
// schedule recorded with the original (pre slab-queue) engine: same
// virtual times, same per-rank interval order, same aggregate counters.
// Regenerate with `go test ./internal/spec -run Determinism -update`
// only when an intentional model change alters simulated results.
func TestDeterminismGolden(t *testing.T) {
	for _, job := range goldenJobs() {
		job := job
		t.Run(job.name, func(t *testing.T) {
			res, err := spec.Run(job.rs)
			if err != nil {
				t.Fatal(err)
			}
			got := renderDeterminism(res, job.full)
			path := filepath.Join("testdata", "determinism_"+job.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s: simulated schedule diverged from the recorded engine\n%s",
					job.name, firstDiff(string(want), got))
			}
		})
	}
}

// TestDeterminismRepeat runs the same job twice in one process and
// demands identical fingerprints, catching any nondeterminism introduced
// by state reuse (pooled environments, recycled event slots).
func TestDeterminismRepeat(t *testing.T) {
	job := goldenJobs()[0]
	a, err := spec.Run(job.rs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run(job.rs)
	if err != nil {
		t.Fatal(err)
	}
	if renderDeterminism(a, true) != renderDeterminism(b, true) {
		t.Fatal("back-to-back identical runs produced different schedules")
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d got %d", len(wl), len(gl))
}
