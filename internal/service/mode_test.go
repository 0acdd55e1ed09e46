package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

// fitRanks is the rank grid the surrogate server's tealeaf/ClusterA
// model is fitted over: queries inside [1, 36] are in-hull, anything
// beyond must fall back to the simulator.
var fitRanks = []int{1, 2, 3, 4, 6, 9, 12, 18, 24, 36}

// newSurrogateServer builds a server whose index is pre-fitted from an
// exact tealeaf sweep on ClusterA. MaxBound is generous so the tests
// exercise the hull/no-model axes deterministically, independent of how
// tight the kernel's LOO bounds happen to be.
func newSurrogateServer(t *testing.T) (*httptest.Server, *surrogate.Index, *campaign.Scheduler) {
	t.Helper()
	results, err := spec.Sweep(spec.RunSpec{
		Benchmark: "tealeaf",
		Class:     bench.Tiny,
		Cluster:   machine.MustGet("ClusterA"),
		Options:   bench.Options{SimSteps: 1},
	}, fitRanks)
	if err != nil {
		t.Fatal(err)
	}
	idx := surrogate.NewIndex()
	idx.MaxBound = 10
	for _, res := range results {
		idx.Observe(res)
	}
	sched := campaign.NewScheduler(2, nil)
	srv := New(sched, Options{Quick: true, ArtifactDir: t.TempDir(), Surrogate: idx})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		sched.Close()
	})
	return ts, idx, sched
}

// TestJobModeFastHit round-trips a fast-mode job inside the fitted
// hull: the answer comes from the surrogate (bound attached, no
// simulation) and /statsz counts the hit on both the scheduler and the
// model-inventory side.
func TestJobModeFastHit(t *testing.T) {
	ts, _, _ := newSurrogateServer(t)

	var sub jobStatus
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":8,"sim_steps":1,"mode":"fast"}`, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	st := waitState(t, ts.URL+"/api/v1/jobs/"+sub.ID)
	if st.State != "done" {
		t.Fatalf("fast job ended as %s (%s)", st.State, st.Error)
	}
	if st.Surrogate == nil || st.Surrogate.Bound <= 0 {
		t.Fatalf("fast in-hull job not marked surrogate-served: %+v", st.Surrogate)
	}
	if st.Result == nil || st.Result.Usage.Wall <= 0 {
		t.Fatalf("surrogate answer carries no usage: %+v", st.Result)
	}
	if st.Result.Usage.Ranks != 8 {
		t.Errorf("synthesized ranks = %d, want 8", st.Result.Usage.Ranks)
	}
	if v, ok := st.Result.Metrics["wall_s"]; !ok || v <= 0 {
		t.Errorf("derived metrics missing from surrogate answer: %v", st.Result.Metrics)
	}

	var stats statszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", "", &stats)
	if stats.Campaign.SurrogateHits != 1 || stats.Campaign.Misses != 0 {
		t.Errorf("campaign stats = %+v, want 1 surrogate hit and 0 fresh sims", stats.Campaign)
	}
	if stats.Surrogate == nil {
		t.Fatal("statsz lacks the surrogate block despite an attached index")
	}
	if stats.Surrogate.Models < 1 {
		t.Errorf("surrogate block = %+v, want >=1 model", stats.Surrogate)
	}
	if stats.Surrogate.Observed != int64(len(fitRanks)) {
		t.Errorf("observed = %d, want the %d fitted sweep points", stats.Surrogate.Observed, len(fitRanks))
	}
}

// TestJobModeFastFallbacks round-trips the two fallback flavours: an
// out-of-hull query (model exists, refuses to extrapolate) and a
// no-model query (kernel never observed). Both must simulate exactly
// and finish with real results, counted distinctly.
func TestJobModeFastFallbacks(t *testing.T) {
	ts, _, _ := newSurrogateServer(t)

	// Extrapolation refused: ranks=60 is beyond the fitted [1, 36] hull.
	var refused jobStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":60,"sim_steps":1,"mode":"fast"}`, &refused)
	st := waitState(t, ts.URL+"/api/v1/jobs/"+refused.ID)
	if st.State != "done" {
		t.Fatalf("out-of-hull fallback ended as %s (%s)", st.State, st.Error)
	}
	if st.Surrogate != nil {
		t.Fatal("out-of-hull job claims a surrogate answer")
	}
	if st.Result == nil || st.Result.Usage.Wall <= 0 {
		t.Fatal("fallback simulation carries no usage")
	}

	// No model: lbm was never observed.
	var noModel jobStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"lbm","cluster":"A","class":"tiny","ranks":4,"sim_steps":1,"mode":"fast"}`, &noModel)
	if st := waitState(t, ts.URL+"/api/v1/jobs/"+noModel.ID); st.State != "done" || st.Surrogate != nil {
		t.Fatalf("no-model fallback: state=%s surrogate=%+v", st.State, st.Surrogate)
	}

	var stats statszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", "", &stats)
	if stats.Campaign.SurrogateRefused != 1 || stats.Campaign.SurrogateMisses != 1 {
		t.Errorf("campaign stats = %+v, want 1 refused + 1 miss", stats.Campaign)
	}
	if stats.Campaign.Misses != 2 {
		t.Errorf("fresh_sims = %d, want 2 (both fallbacks simulated)", stats.Campaign.Misses)
	}
	if want := int64(len(fitRanks) + 2); stats.Surrogate.Observed != want {
		t.Errorf("observed = %d, want %d (both fallback results fed back)", stats.Surrogate.Observed, want)
	}
}

// TestJobModeExactBypassesSurrogate checks the default tier is
// untouched by an attached index: an exact submission simulates even
// when a fitted model covers it.
func TestJobModeExactBypassesSurrogate(t *testing.T) {
	ts, _, _ := newSurrogateServer(t)

	var sub jobStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":8,"sim_steps":1,"mode":"exact"}`, &sub)
	st := waitState(t, ts.URL+"/api/v1/jobs/"+sub.ID)
	if st.State != "done" || st.Surrogate != nil {
		t.Fatalf("exact job: state=%s surrogate=%+v", st.State, st.Surrogate)
	}

	var stats statszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", "", &stats)
	if stats.Campaign.SurrogateHits != 0 || stats.Campaign.Misses != 1 {
		t.Errorf("campaign stats = %+v, want 0 surrogate hits and 1 fresh sim", stats.Campaign)
	}
}

// TestJobModeValidation rejects unknown mode values with a 400.
func TestJobModeValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	var e map[string]string
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","ranks":2,"mode":"turbo"}`, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mode=turbo: status %d, want 400", resp.StatusCode)
	}
	if e["error"] == "" {
		t.Error("mode=turbo: no error message")
	}
}

// TestScenarioModeFast runs a whole scenario through the fast tier: all
// of its points sit inside the fitted hull, so the study completes with
// zero fresh simulations and the run reports its mode.
func TestScenarioModeFast(t *testing.T) {
	ts, _, _ := newSurrogateServer(t)

	doc := `{
	  "name": "fastsvc",
	  "mode": "fast",
	  "sweeps": [
	    {"benchmarks": ["tealeaf"], "clusters": ["ClusterA"], "points": [2, 8, 20], "metrics": ["wall_s"]}
	  ]
	}`
	var sub scenarioStatus
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/scenarios", doc, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", resp.StatusCode, sub)
	}
	if sub.Mode != "fast" {
		t.Errorf("scenario mode = %q, want fast", sub.Mode)
	}

	deadline := time.Now().Add(60 * time.Second)
	var st scenarioStatus
	for {
		doJSON(t, http.MethodGet, ts.URL+"/api/v1/scenarios/"+sub.ID, "", &st)
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scenario never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("scenario ended as %s (%s)", st.State, st.Error)
	}

	var stats statszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", "", &stats)
	if stats.Campaign.Misses != 0 {
		t.Errorf("fresh_sims = %d, want 0 (the whole study rode the surrogate)", stats.Campaign.Misses)
	}
	if stats.Campaign.SurrogateHits < 3 {
		t.Errorf("surrogate_hits = %d, want >= 3 (one per sweep point)", stats.Campaign.SurrogateHits)
	}
}
