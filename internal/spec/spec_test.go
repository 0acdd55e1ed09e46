package spec

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
)

func TestAllNineBenchmarksRegistered(t *testing.T) {
	names := realBenchmarks()
	want := []string{"lbm", "soma", "tealeaf", "cloverleaf", "minisweep",
		"pot3d", "sph-exa", "hpgmgfv", "weather"}
	if len(names) != len(want) {
		t.Fatalf("registered %d benchmarks (%v), want %d", len(names), names, len(want))
	}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("benchmark %q missing from registry", w)
		}
	}
}

func TestRunVerifiesAndExtrapolates(t *testing.T) {
	res, err := Run(RunSpec{
		Benchmark: "tealeaf",
		Class:     bench.Tiny,
		Cluster:   machine.ClusterA(),
		Ranks:     4,
		Options:   bench.Options{SimSteps: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Report.RepFactor()
	if f <= 1 {
		t.Fatalf("rep factor = %v, want > 1", f)
	}
	if got := res.Usage.Wall / res.RawUsage.Wall; got < f*0.99 || got > f*1.01 {
		t.Fatalf("usage scaling = %v, want rep factor %v", got, f)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	_, err := Run(RunSpec{Benchmark: "nope", Cluster: machine.ClusterA(), Ranks: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestNodePointsCoverDomainsAndNode(t *testing.T) {
	for _, cs := range []*machine.ClusterSpec{machine.ClusterA(), machine.ClusterB()} {
		pts := NodePoints(cs)
		if pts[0] != 1 {
			t.Errorf("%s: first point %d, want 1", cs.Name, pts[0])
		}
		has := func(v int) bool {
			for _, p := range pts {
				if p == v {
					return true
				}
			}
			return false
		}
		cpd := cs.CPU.CoresPerDomain()
		for d := 1; d*cpd <= cs.CPU.CoresPerNode(); d++ {
			if !has(d * cpd) {
				t.Errorf("%s: missing domain boundary %d", cs.Name, d*cpd)
			}
		}
		if pts[len(pts)-1] != cs.CPU.CoresPerNode() {
			t.Errorf("%s: last point %d, want full node", cs.Name, pts[len(pts)-1])
		}
	}
}

// TestNodePointsPaperClusters pins the exact node-sweep ladders of the
// two paper systems: 1, 2, 4, then one-third-domain steps (6 on Ice
// Lake's 18-core domains, 4 on Sapphire Rapids' 13-core domains) plus
// every domain multiple. These rank counts are part of every figure's
// job plan — and therefore of the persistent campaign cache keys — so a
// change here silently invalidates warm stores and must be deliberate.
func TestNodePointsPaperClusters(t *testing.T) {
	cases := []struct {
		cluster string
		want    []int
	}{
		{"ClusterA", []int{
			1, 2, 4, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72,
		}},
		{"ClusterB", []int{
			1, 2, 4, 8, 12, 13, 16, 20, 24, 26, 28, 32, 36, 39, 40, 44, 48,
			52, 56, 60, 64, 65, 68, 72, 76, 78, 80, 84, 88, 91, 92, 96, 100, 104,
		}},
	}
	for _, c := range cases {
		got := NodePoints(machine.MustGet(c.cluster))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s node points:\n got %v\nwant %v", c.cluster, got, c.want)
		}
	}
}

func TestMultiNodePoints(t *testing.T) {
	a := machine.ClusterA()
	pts := MultiNodePoints(a)
	if pts[0] != 72 || pts[len(pts)-1] != 1152 {
		t.Fatalf("multi-node points %v, want 72..1152", pts)
	}
}

// tinyCluster builds a minimal valid cluster with very few cores, the
// edge case for the sweep point generators.
func tinyCluster(coresPerSocket, sockets, domains, nodes int) *machine.ClusterSpec {
	cs := machine.ClusterA()
	cs.Name = "tiny-test"
	cs.CPU.CoresPerSocket = coresPerSocket
	cs.CPU.SocketsPerNode = sockets
	cs.CPU.DomainsPerSocket = domains
	cs.MaxNodes = nodes
	return cs
}

func TestNodePointsTinyCoreCounts(t *testing.T) {
	// 2 cores per node, 1 domain: step = cpd/3 = 0 must clamp to 1, and
	// the seed points 2/4 must not exceed the node.
	cs := tinyCluster(2, 1, 1, 2)
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	pts := NodePoints(cs)
	if len(pts) == 0 || pts[0] != 1 {
		t.Fatalf("points %v, want to start at 1", pts)
	}
	cpn := cs.CPU.CoresPerNode()
	for i, p := range pts {
		if p < 1 || p > cpn {
			t.Errorf("point %d out of node range [1,%d]: %v", p, cpn, pts)
		}
		if i > 0 && pts[i-1] >= p {
			t.Errorf("points not strictly increasing: %v", pts)
		}
	}
	if pts[len(pts)-1] != cpn {
		t.Errorf("last point %d, want full node %d", pts[len(pts)-1], cpn)
	}

	// Single-core node degenerates to exactly one point.
	if pts := NodePoints(tinyCluster(1, 1, 1, 1)); len(pts) != 1 || pts[0] != 1 {
		t.Errorf("1-core node points = %v, want [1]", pts)
	}
}

func TestMultiNodePointsTinyClusters(t *testing.T) {
	// One node: a single full-node point, no duplicate.
	cs := tinyCluster(2, 1, 1, 1)
	if pts := MultiNodePoints(cs); len(pts) != 1 || pts[0] != 2 {
		t.Errorf("1-node points = %v, want [2]", pts)
	}
	// Three nodes: powers of two (1, 2) plus the full machine (3).
	cs = tinyCluster(2, 1, 1, 3)
	want := []int{2, 4, 6}
	pts := MultiNodePoints(cs)
	if len(pts) != len(want) {
		t.Fatalf("3-node points = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("3-node points = %v, want %v", pts, want)
		}
	}
}

func TestSweepRunsAllPoints(t *testing.T) {
	results, err := Sweep(RunSpec{
		Benchmark: "cloverleaf",
		Class:     bench.Tiny,
		Cluster:   machine.ClusterA(),
		Options:   bench.Options{SimSteps: 2},
	}, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, want := range []int{1, 4, 8} {
		if results[i].Usage.Ranks != want {
			t.Errorf("result %d has %d ranks, want %d", i, results[i].Usage.Ranks, want)
		}
	}
	// Strong scaling: wall time decreases.
	if results[2].Usage.Wall >= results[0].Usage.Wall {
		t.Error("8-rank run not faster than 1-rank run")
	}
}

func TestEveryBenchmarkRunsUnderHarness(t *testing.T) {
	for _, name := range realBenchmarks() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := Run(RunSpec{
				Benchmark: name,
				Class:     bench.Tiny,
				Cluster:   machine.ClusterA(),
				Ranks:     4,
				Options:   bench.Options{SimSteps: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Usage.Flops() <= 0 || res.Usage.Wall <= 0 {
				t.Fatalf("degenerate usage: %+v", res.Usage)
			}
		})
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	// The DES engine guarantees bit-identical results for identical
	// specs — the property that makes every figure reproducible.
	run := func() (float64, float64, float64) {
		res, err := Run(RunSpec{
			Benchmark: "minisweep",
			Class:     bench.Tiny,
			Cluster:   machine.ClusterB(),
			Ranks:     26,
			Options:   bench.Options{SimSteps: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Usage.Wall, res.Usage.ChipEnergy, res.Usage.TimeMPI
	}
	w1, e1, m1 := run()
	w2, e2, m2 := run()
	if w1 != w2 || e1 != e2 || m1 != m2 {
		t.Fatalf("nondeterministic run: wall %v vs %v, energy %v vs %v, mpi %v vs %v",
			w1, w2, e1, e2, m1, m2)
	}
}

var invalidOnce sync.Once

func TestVerificationFailureIsRefused(t *testing.T) {
	// A benchmark whose checks fail must be rejected like SPEC's
	// invalid-run handling. Exercised via a synthetic registry entry,
	// registered once per process: the registry refuses duplicates, and
	// -count runs the test more than once.
	invalidOnce.Do(func() {
		bench.Register(&bench.Benchmark{
			ID:   99,
			Name: "always-invalid",
			Run: func(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
				rep := bench.RunReport{StepsModeled: 1, StepsSimulated: 1}
				if r.ID() == 0 {
					rep.Checks = []bench.Check{{Name: "synthetic", OK: false}}
				}
				return rep, nil
			},
		})
	})
	_, err := Run(RunSpec{
		Benchmark: "always-invalid", Class: bench.Tiny,
		Cluster: machine.ClusterA(), Ranks: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "verification FAILED") {
		t.Fatalf("invalid run not refused: %v", err)
	}
}

// realBenchmarks filters out synthetic registry entries other tests add.
func realBenchmarks() []string {
	var names []string
	for _, n := range bench.Names() {
		if n != "always-invalid" {
			names = append(names, n)
		}
	}
	return names
}
