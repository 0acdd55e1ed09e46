package campaign

import (
	"context"
	"sync"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// TestWithSimWorkersEligibility pins which jobs a worker grant may touch:
// multi-node jobs on fabrics with a positive latency floor that did not
// pin their own worker count — and nothing else.
func TestWithSimWorkersEligibility(t *testing.T) {
	zeroLat := netsim.HDR100()
	zeroLat.InterNodeLatency = 0
	pinned := counterJob(100)
	pinned.SimWorkers = 2
	cases := []struct {
		name  string
		rs    spec.RunSpec
		grant int
		want  int
	}{
		{"multi-node granted", counterJob(100), 8, 8},
		{"single node ineligible", counterJob(72), 8, 0},
		{"grant of one is a no-op", counterJob(100), 1, 0},
		{"disabled grant", counterJob(100), 0, 0},
		{"pinned worker count kept", pinned, 8, 2},
		{"nil cluster ineligible", spec.RunSpec{Benchmark: "campaign-counter", Ranks: 100}, 8, 0},
	}
	for _, c := range cases {
		if got := withSimWorkers(c.rs, c.grant).SimWorkers; got != c.want {
			t.Errorf("%s: SimWorkers = %d, want %d", c.name, got, c.want)
		}
	}
	zl := counterJob(100)
	zl.Net = zeroLat
	if got := withSimWorkers(zl, 8).SimWorkers; got != 0 {
		t.Errorf("zero-latency fabric granted %d workers; the partitioned engine cannot run it", got)
	}
}

// TestSchedulerGrantPolicy drives the scheduler with an intercepting
// runner and checks the grant policy end to end: an otherwise-idle pool
// donates its full worker budget to a lone multi-node job, a forced
// setting overrides the budget, and -1 switches grants off. Single-node
// jobs are never granted workers whatever the policy.
func TestSchedulerGrantPolicy(t *testing.T) {
	run := func(setting int, rs spec.RunSpec) int {
		s := NewScheduler(4, nil)
		s.SetSimWorkers(setting)
		var mu sync.Mutex
		seen := -1
		s.SetRunner(func(rs spec.RunSpec) (spec.RunResult, error) {
			mu.Lock()
			seen = rs.SimWorkers
			mu.Unlock()
			return spec.Run(rs)
		})
		defer s.Close()
		if out := s.Submit(context.Background(), rs, 0, Exact).Wait(context.Background()); out.Err != nil {
			t.Fatalf("setting %d: %v", setting, out.Err)
		}
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
	multi := counterJob(100) // two ClusterA nodes
	if got := run(0, multi); got != 4 {
		t.Errorf("idle auto grant gave %d workers, want the pool budget 4", got)
	}
	if got := run(2, multi); got != 2 {
		t.Errorf("forced setting gave %d workers, want 2", got)
	}
	if got := run(-1, multi); got != 0 {
		t.Errorf("disabled grants still gave %d workers", got)
	}
	if got := run(0, counterJob(4)); got != 0 {
		t.Errorf("single-node job granted %d workers", got)
	}
}

// TestGrantedJobSharesSerialKey confirms a granted execution memoizes
// under the job's serial identity: a follow-up serial submission of the
// same spec must hit the memo, not re-simulate.
func TestGrantedJobSharesSerialKey(t *testing.T) {
	s := NewScheduler(4, nil)
	s.SetSimWorkers(4)
	defer s.Close()
	before := simCount.Load()
	rs := counterJob(100)
	if out := s.Submit(context.Background(), rs, 0, Exact).Wait(context.Background()); out.Err != nil {
		t.Fatal(out.Err)
	}
	ran := simCount.Load() - before
	if ran != 100 {
		t.Fatalf("first run simulated %d rank bodies, want 100", ran)
	}
	if out := s.Submit(context.Background(), rs, 0, Exact).Wait(context.Background()); out.Err != nil {
		t.Fatal(out.Err)
	}
	if again := simCount.Load() - before; again != ran {
		t.Errorf("resubmission re-simulated (%d total rank bodies, want %d): granted run missed the memo", again, ran)
	}
}

// TestSchedulerCountsPsimWindows checks the scheduler's own psim
// accounting: one granted multi-node job adds exactly its run's windows
// to Stats().Psim, and a memo hit on the same job adds nothing.
func TestSchedulerCountsPsimWindows(t *testing.T) {
	s := NewScheduler(2, nil)
	s.SetSimWorkers(2)
	defer s.Close()
	rs := counterJob(100)
	out := s.Submit(context.Background(), rs, 0, Exact).Wait(context.Background())
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Result.Psim.Windows == 0 {
		t.Fatal("granted multi-node job ran no psim windows")
	}
	got := s.Stats().Psim
	if got.Runs != 1 || got.Stats != out.Result.Psim {
		t.Errorf("Stats().Psim = %+v, want 1 run with %+v", got, out.Result.Psim)
	}
	if out := s.Submit(context.Background(), rs, 0, Exact).Wait(context.Background()); out.Err != nil {
		t.Fatal(out.Err)
	}
	if again := s.Stats().Psim; again != got {
		t.Errorf("memo hit changed Stats().Psim: %+v -> %+v", got, again)
	}
}
