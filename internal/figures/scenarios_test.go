package figures

import (
	"context"
	"strings"
	"testing"
)

// TestScenarioPlansCoverRenders pins the planner contract of every
// built-in experiment: once the experiment's enqueued scenario has
// finished, its renderer runs entirely from the scheduler memo — zero
// fresh simulations. A failure means a renderer requested a job outside
// its scenario's expansion. One context is shared across
// experiments (exactly like a cmd/figures run), so overlapping plans pay
// for each unique job once.
func TestScenarioPlansCoverRenders(t *testing.T) {
	ctx, _, _ := quickCtx(t)
	for _, e := range All() {
		if e.Scenario == nil {
			continue // table-only experiment, no simulations
		}
		sc := e.Scenario(ctx)
		if sc == nil {
			t.Fatalf("%s: scenario plan is nil for a simulating experiment", e.ID)
		}
		jobs, err := ctx.planner().Expand(sc)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(jobs) == 0 {
			t.Fatalf("%s: scenario plan expands to no jobs", e.ID)
		}
		tickets, err := ctx.planner().Enqueue(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, tk := range tickets {
			tk.Wait(context.Background())
		}
		warmed := ctx.Scheduler.Stats()
		if err := e.Run(ctx); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		final := ctx.Scheduler.Stats()
		if final.Misses != warmed.Misses {
			t.Errorf("%s: renderer simulated %d jobs outside the scenario plan",
				e.ID, final.Misses-warmed.Misses)
		}
	}
	if ctx.Scheduler.Stats().Misses == 0 {
		t.Fatal("no experiment simulated anything")
	}
}

// TestExperimentScenariosHonorContextClusters checks the default-cluster
// plumbing: a single-cluster context expands plans against that cluster
// only (except experiments pinned to the paper systems).
func TestExperimentScenariosHonorContextClusters(t *testing.T) {
	ctx, _, _ := quickCtx(t)
	ctx.Clusters = []string{"ClusterB"}
	sc := fig1Scenario(ctx)
	jobs, err := ctx.planner().Expand(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Cluster.Name != "ClusterB" {
			t.Fatalf("fig1 plan includes %s under a ClusterB-only context", j.Cluster.Name)
		}
	}
	// The scaling-case table always compares both paper systems.
	seen := map[string]bool{}
	jobs, err = ctx.planner().Expand(casesScenario(ctx))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		seen[j.Cluster.Name] = true
	}
	if !seen["ClusterA"] || !seen["ClusterB"] {
		t.Errorf("cases plan covers %v, want both paper clusters", seen)
	}
}

// TestExperimentListStructure keeps the -only ids stable and every
// simulating experiment backed by a scenario definition.
func TestExperimentListStructure(t *testing.T) {
	tableOnly := map[string]bool{"table1": true, "table2": true, "table3": true}
	for _, e := range All() {
		if tableOnly[e.ID] {
			if e.Scenario != nil {
				t.Errorf("%s is table-only but has a scenario plan", e.ID)
			}
			continue
		}
		if e.Scenario == nil {
			t.Errorf("simulating experiment %s has no scenario definition", e.ID)
		}
		if strings.Contains(e.ID, " ") {
			t.Errorf("experiment id %q has spaces", e.ID)
		}
	}
}
