package validate

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

// sweepPoints returns the cross-validation rank grid for a cluster:
// sub-domain, domain-multiple, and full-node points up to one node.
// Twelve points means ten interior held-out probes per combo, enough
// for the 90% coverage criterion to tolerate a single miss.
func sweepPoints(cs *machine.ClusterSpec) []int {
	switch cs.Name {
	case "ClusterA": // 18 cores/domain, 72/node
		return []int{1, 2, 3, 4, 6, 9, 12, 18, 24, 36, 54, 72}
	case "ClusterB": // 13 cores/domain, 104/node
		return []int{1, 2, 3, 4, 6, 8, 13, 26, 39, 52, 78, 104}
	}
	return spec.NodePoints(cs)
}

// exactSweep simulates one benchmark across the cluster's validation
// grid at the base clock with single-step runs (RepFactor extrapolates,
// and the surrogate fits the extrapolated totals either way).
func exactSweep(t *testing.T, name string, cs *machine.ClusterSpec) []spec.RunResult {
	t.Helper()
	base := spec.RunSpec{
		Benchmark: name,
		Class:     bench.Tiny,
		Cluster:   cs,
		Options:   bench.Options{SimSteps: 1},
	}
	results, err := spec.Sweep(base, sweepPoints(cs))
	if err != nil {
		t.Fatalf("sweep %s/%s: %v", name, cs.Name, err)
	}
	return results
}

// TestLeaveOneOutAllKernels is the headline cross-validation: for all
// nine SPEChpc kernels on both reference clusters, every interior
// sweep point held out must be predicted within the reduced model's
// own reported bound on at least 90% of probes, and held-out hull
// endpoints must be refused, never extrapolated.
func TestLeaveOneOutAllKernels(t *testing.T) {
	for _, clusterName := range []string{"ClusterA", "ClusterB"} {
		cs := machine.MustGet(clusterName)
		for _, name := range bench.Names() {
			name, cs := name, cs
			t.Run(name+"/"+clusterName, func(t *testing.T) {
				t.Parallel()
				rep, err := LeaveOneOut(exactSweep(t, name, cs))
				if err != nil {
					t.Fatal(err)
				}
				if got := rep.Coverage(); got < 0.9 {
					for _, p := range rep.Held {
						t.Logf("ranks=%-4d bound=%.4f wall=%.4f energy=%.4f edp=%.4f covered=%v",
							p.Ranks, p.Bound, p.ErrWall, p.ErrEnergy, p.ErrEDP, p.Covered)
					}
					t.Errorf("coverage = %.2f (%d/%d), want >= 0.90",
						got, rep.Covered, len(rep.Held))
				}
				if !rep.EndpointsRefused {
					t.Error("a model fitted without a hull endpoint extrapolated to it instead of refusing")
				}
			})
		}
	}
}

func TestLeaveOneOutRejectsShortSweeps(t *testing.T) {
	cs := machine.MustGet("ClusterA")
	base := spec.RunSpec{Benchmark: "lbm", Class: bench.Tiny, Cluster: cs, Options: bench.Options{SimSteps: 1}}
	results, err := spec.Sweep(base, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LeaveOneOut(results); err == nil {
		t.Fatal("LeaveOneOut accepted a 3-point sweep")
	}
}

// TestOutOfHullFallsBackToSimulator drives the full two-tier path
// through a real scheduler: a fast-mode query inside the fitted hull is
// served by the surrogate without simulating; a fast-mode query outside
// the hull is refused, simulated exactly, counted as a refusal, and the
// fresh exact result is fed back into the index.
func TestOutOfHullFallsBackToSimulator(t *testing.T) {
	cs := machine.MustGet("ClusterA")
	results := exactSweep(t, "lbm", cs)

	idx := surrogate.NewIndex()
	idx.MaxBound = 10 // isolate the hull axis: bound magnitude must not refuse
	for _, res := range results {
		idx.Observe(res)
	}
	seeded := idx.Stats().Observed

	sched := campaign.NewScheduler(2, nil)
	defer sched.Close()
	sched.SetPredictor(idx)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	base := spec.RunSpec{Benchmark: "lbm", Class: bench.Tiny, Cluster: cs, Options: bench.Options{SimSteps: 1}}

	inHull := base
	inHull.Ranks = 30 // interior, not a sampled point
	tk := sched.Submit(ctx, inHull, 0, campaign.Fast)
	out := tk.Wait(ctx)
	if out.Err != nil {
		t.Fatalf("in-hull fast query failed: %v", out.Err)
	}
	if bound, ok := tk.Surrogate(); !ok || bound <= 0 {
		t.Fatalf("in-hull fast query not served by surrogate (bound=%v ok=%v)", bound, ok)
	}

	outOfHull := base
	outOfHull.Ranks = 73 // one past the 72-rank fitted hull
	tk = sched.Submit(ctx, outOfHull, 0, campaign.Fast)
	out = tk.Wait(ctx)
	if out.Err != nil {
		t.Fatalf("out-of-hull fallback simulation failed: %v", out.Err)
	}
	if _, ok := tk.Surrogate(); ok {
		t.Fatal("out-of-hull query claims a surrogate answer")
	}
	if out.Result.Usage.Wall <= 0 {
		t.Fatal("fallback simulation produced no usage")
	}

	st := sched.Stats()
	if st.SurrogateHits != 1 {
		t.Errorf("SurrogateHits = %d, want 1", st.SurrogateHits)
	}
	if st.SurrogateRefused != 1 {
		t.Errorf("SurrogateRefused = %d, want 1", st.SurrogateRefused)
	}
	if st.Misses != 1 {
		t.Errorf("fresh sims = %d, want exactly the out-of-hull fallback", st.Misses)
	}
	if observed := idx.Stats().Observed; observed != seeded+1 {
		t.Errorf("observed = %d, want %d (fallback result fed back into the index)", observed, seeded+1)
	}

	// The fed-back exact result extended the fitted hull: repeating the
	// same query now gets a surrogate answer instead of a refusal.
	if _, err := idx.Predict(outOfHull); err != nil {
		t.Errorf("Predict after feedback = %v, want the learned hull to cover ranks=%d",
			err, outOfHull.Ranks)
	}
	// A fresh index fitted only from the original sweep still refuses.
	fresh := surrogate.NewIndex()
	fresh.MaxBound = 10
	for _, res := range results {
		fresh.Observe(res)
	}
	if _, err := fresh.Predict(outOfHull); !errors.Is(err, campaign.ErrRefused) {
		t.Errorf("fresh Predict(out-of-hull) = %v, want ErrRefused", err)
	}
}

// TestSurrogateSpeedup pins the headline performance claim: a fitted
// model answers a query at least 1000x faster than even a minimal
// single-step exact simulation (the observed gap is around four orders
// of magnitude).
func TestSurrogateSpeedup(t *testing.T) {
	cs := machine.MustGet("ClusterA")
	results := exactSweep(t, "lbm", cs)
	idx := surrogate.NewIndex()
	for _, res := range results {
		idx.Observe(res)
	}
	probe := spec.RunSpec{Benchmark: "lbm", Class: bench.Tiny, Cluster: cs, Ranks: 30, Options: bench.Options{SimSteps: 1}}
	m, ok := idx.Lookup(probe)
	if !ok {
		t.Fatal("no fitted model after sweep")
	}

	simStart := time.Now()
	if _, err := spec.Run(probe); err != nil {
		t.Fatal(err)
	}
	simTime := time.Since(simStart)

	const iters = 20000
	queryStart := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := m.Predict(probe.Ranks, 0); err != nil {
			t.Fatal(err)
		}
	}
	perQuery := time.Since(queryStart) / iters

	if perQuery <= 0 {
		perQuery = time.Nanosecond
	}
	speedup := float64(simTime) / float64(perQuery)
	t.Logf("simulation %v vs surrogate query %v: %.0fx", simTime, perQuery, speedup)
	if speedup < 1000 {
		t.Errorf("speedup = %.0fx, want >= 1000x", speedup)
	}
	if perQuery > time.Microsecond {
		t.Errorf("steady-state query = %v, want sub-microsecond", perQuery)
	}
}
