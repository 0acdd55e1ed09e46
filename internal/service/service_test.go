package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
)

// newTestServer builds a quick-mode server over a fresh scheduler and
// an httptest front end. The caller owns both.
func newTestServer(t *testing.T, store campaign.Store) (*Server, *httptest.Server, *campaign.Scheduler) {
	t.Helper()
	sched := campaign.NewScheduler(4, store)
	srv := New(sched, Options{Quick: true, ArtifactDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		sched.Close()
	})
	return srv, ts, sched
}

// doJSON performs one request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, url string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st jobStatus
		doJSON(t, http.MethodGet, url, "", &st)
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job at %s never finished (state %s)", url, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthzAndDiscovery round-trips the liveness probe and the
// benchmark/cluster discovery endpoints.
func TestHealthzAndDiscovery(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	var health map[string]string
	if resp := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", &health); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	var benches []map[string]any
	doJSON(t, http.MethodGet, ts.URL+"/api/v1/benchmarks", "", &benches)
	if len(benches) < 9 {
		t.Errorf("only %d benchmarks listed, want the full suite", len(benches))
	}

	var clusters []struct {
		Name          string    `json:"name"`
		CoresPerNode  int       `json:"cores_per_node"`
		DVFSLadderGHz []float64 `json:"dvfs_ladder_ghz"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/api/v1/clusters", "", &clusters)
	found := false
	for _, c := range clusters {
		if c.Name == "ClusterA" {
			found = true
			if c.CoresPerNode <= 0 || len(c.DVFSLadderGHz) == 0 {
				t.Errorf("ClusterA info incomplete: %+v", c)
			}
		}
	}
	if !found {
		t.Error("ClusterA missing from /api/v1/clusters")
	}
}

// TestJobLifecycle submits one job and walks it to completion: status
// polling, result metrics, the CSV rendering, and the list endpoint.
func TestJobLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	var sub jobStatus
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":2,"sim_steps":1}`, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if sub.ID == "" || sub.Key == "" {
		t.Fatalf("submission lacks id/key: %+v", sub)
	}

	st := waitState(t, ts.URL+"/api/v1/jobs/"+sub.ID)
	if st.State != "done" {
		t.Fatalf("job finished as %s (%s)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Usage.Wall <= 0 {
		t.Fatalf("done job carries no usage: %+v", st.Result)
	}
	if v, ok := st.Result.Metrics["wall_s"]; !ok || v <= 0 {
		t.Errorf("derived metric wall_s missing or non-positive: %v", st.Result.Metrics)
	}
	if len(st.Result.Checks) == 0 {
		t.Error("done job carries no verification checks")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+sub.ID+"/csv", nil)
	cr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	csv := readAll(t, cr)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "benchmark,cluster,class,ranks,nodes") {
		t.Errorf("job CSV malformed:\n%s", csv)
	}
	if !strings.HasPrefix(lines[1], "tealeaf,") {
		t.Errorf("job CSV values malformed:\n%s", csv)
	}

	var list []jobStatus
	doJSON(t, http.MethodGet, ts.URL+"/api/v1/jobs", "", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Errorf("job list = %+v, want the one submission", list)
	}
}

// TestStatszPsimWindows submits a multi-node job to an otherwise-idle
// server — the scheduler donates its worker budget, so the job runs on
// the partitioned engine — and checks /statsz reports the engine's
// window accounting for that one run.
func TestStatszPsimWindows(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	var sub jobStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":100,"sim_steps":1}`, &sub)
	if st := waitState(t, ts.URL+"/api/v1/jobs/"+sub.ID); st.State != "done" {
		t.Fatalf("multi-node job finished as %s (%s)", st.State, st.Error)
	}

	var stats statszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", "", &stats)
	if p := stats.Psim; p.Runs != 1 || p.Windows <= 0 || p.Dispatched <= 0 || p.Narrowest <= 0 {
		t.Errorf("psim block = %+v, want 1 run with windows, dispatched windows and a positive narrowest span", p)
	}
}

// TestJobValidation rejects malformed submissions with 400s.
func TestJobValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for _, body := range []string{
		`{"cluster":"A","ranks":2}`,                                // no benchmark
		`{"benchmark":"no-such","cluster":"A","ranks":2}`,          // unknown kernel
		`{"benchmark":"tealeaf","cluster":"Nowhere","ranks":2}`,    // unknown cluster
		`{"benchmark":"tealeaf","cluster":"A","ranks":0}`,          // bad ranks
		`{"benchmark":"tealeaf","cluster":"A","ranks":2,"x":true}`, // unknown key
		`not json at all`,
	} {
		var e map[string]string
		resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs", body, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
		if e["error"] == "" {
			t.Errorf("body %s: no error message", body)
		}
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/api/v1/jobs/j-999", "", new(map[string]string)); resp.StatusCode != 404 {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
}

// TestJobCoalescingAcrossRequests submits the same job through two HTTP
// requests and checks the scheduler ran one simulation: the service's
// cross-request coalescing guarantee, visible in /statsz.
func TestJobCoalescingAcrossRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	body := `{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":3,"sim_steps":1}`
	var first, second jobStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs", body, &first)
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs", body, &second)
	if first.ID == second.ID {
		t.Fatal("two submissions shared one id")
	}
	if first.Key != second.Key {
		t.Fatal("identical jobs got different canonical keys")
	}
	s1 := waitState(t, ts.URL+"/api/v1/jobs/"+first.ID)
	s2 := waitState(t, ts.URL+"/api/v1/jobs/"+second.ID)
	if s1.State != "done" || s2.State != "done" {
		t.Fatalf("jobs finished as %s/%s", s1.State, s2.State)
	}
	if s1.Result.Usage.Wall != s2.Result.Usage.Wall {
		t.Error("coalesced submissions disagree on the result")
	}

	var stats statszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", "", &stats)
	if stats.Campaign.Misses != 1 {
		t.Errorf("fresh_sims = %d, want exactly 1 (identical requests share one simulation)",
			stats.Campaign.Misses)
	}
	if stats.Campaign.Jobs != 2 || stats.Campaign.Hits != 1 {
		t.Errorf("statsz campaign = %+v, want 2 jobs with 1 memo hit", stats.Campaign)
	}
	if stats.Jobs != 2 {
		t.Errorf("statsz jobs_submitted = %d, want 2", stats.Jobs)
	}
}

// TestJobCancellation fills the single worker with one job and cancels
// a queued second job over HTTP before it can start.
func TestJobCancellation(t *testing.T) {
	sched := campaign.NewScheduler(1, nil)
	srv := New(sched, Options{Quick: true, ArtifactDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close(); sched.Close() }()

	// A real (small) job occupies the only worker long enough on most
	// machines; correctness does not depend on the race — if the second
	// job sneaks into Running/Done, DELETE is a no-op and states say so.
	var a, b jobStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"pot3d","cluster":"A","ranks":4,"sim_steps":2}`, &a)
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"sph-exa","cluster":"A","ranks":4,"sim_steps":2}`, &b)

	var del jobStatus
	resp := doJSON(t, http.MethodDelete, ts.URL+"/api/v1/jobs/"+b.ID, "", &del)
	if resp.StatusCode != 200 {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := waitState(t, ts.URL+"/api/v1/jobs/"+b.ID)
	if final.State != "cancelled" && final.State != "done" {
		t.Fatalf("cancelled job ended as %s (%s)", final.State, final.Error)
	}
	if final.State == "cancelled" && final.Error == "" {
		t.Error("cancelled job carries no error message")
	}
	if st := waitState(t, ts.URL+"/api/v1/jobs/"+a.ID); st.State != "done" {
		t.Errorf("sibling job ended as %s", st.State)
	}
}

// scenarioDoc is a small two-sweep scenario exercising per-sweep
// progress, output streaming, and CSV artifacts.
const scenarioDoc = `{
  // service test scenario
  "name": "svc",
  "title": "service round trip",
  "sweeps": [
    {"benchmarks": ["tealeaf"], "clusters": ["ClusterA"], "points": [1, 2], "metrics": ["wall_s"]},
    {"benchmarks": ["lbm"], "clusters": ["ClusterA"], "points": [2], "metrics": ["speedup"]}
  ],
  "jobs": [
    {"benchmark": "tealeaf", "cluster": "ClusterA", "ranks": 2}
  ]
}`

// TestScenarioLifecycle submits a scenario and follows it to
// completion: per-sweep progress, streamed output, artifact list, and
// artifact content.
func TestScenarioLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	var sub scenarioStatus
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/scenarios", scenarioDoc, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %+v", resp.StatusCode, sub)
	}
	if len(sub.Sweeps) != 2 || sub.Sweeps[0].Total != 2 || sub.Sweeps[1].Total != 1 {
		t.Fatalf("per-sweep totals wrong: %+v", sub.Sweeps)
	}
	if sub.PinnedJobs != 1 {
		t.Fatalf("pinned jobs = %d, want 1", sub.PinnedJobs)
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
	for i, sw := range st.Sweeps {
		if sw.Done != sw.Total || sw.Failed != 0 {
			t.Errorf("sweep %d progress = %+v, want all done", i+1, sw)
		}
	}
	if st.PinnedDone != 1 {
		t.Errorf("pinned done = %d, want 1", st.PinnedDone)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/scenarios/"+sub.ID+"/output", nil)
	or, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	output := readAll(t, or)
	if or.Header.Get("X-Scenario-State") != "done" {
		t.Errorf("output state header = %q", or.Header.Get("X-Scenario-State"))
	}
	if !strings.Contains(output, "svc:") || !strings.Contains(output, "pinned jobs") {
		t.Errorf("rendered output incomplete:\n%s", output)
	}

	var artifacts []string
	doJSON(t, http.MethodGet, ts.URL+"/api/v1/scenarios/"+sub.ID+"/artifacts", "", &artifacts)
	if len(artifacts) == 0 {
		t.Fatal("no CSV artifacts listed")
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/api/v1/scenarios/"+sub.ID+"/artifacts/"+artifacts[0], nil)
	ar, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ar.StatusCode != 200 {
		t.Fatalf("artifact fetch status %d", ar.StatusCode)
	}
	if body := readAll(t, ar); !strings.Contains(body, ",") {
		t.Errorf("artifact %s is not CSV:\n%s", artifacts[0], body)
	}

	var list []scenarioStatus
	doJSON(t, http.MethodGet, ts.URL+"/api/v1/scenarios", "", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Errorf("scenario list = %+v", list)
	}
}

// TestScenarioValidationAndCancel rejects malformed scenario documents
// and round-trips DELETE on a live run.
func TestScenarioValidationAndCancel(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	for _, body := range []string{
		`{"name":"x"}`, // no sweeps, no jobs
		`{"name":"x","sweeps":[{"benchmarks":["nope"],"points":[1]}]}`, // unknown kernel
		`{"name":"x","sweeps":[{"points":"bogus-preset"}]}`,            // bad preset
		`{broken`,
	} {
		var e map[string]string
		resp := doJSON(t, http.MethodPost, ts.URL+"/api/v1/scenarios", body, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/api/v1/scenarios/s-99", "", new(map[string]string)); resp.StatusCode != 404 {
		t.Errorf("unknown scenario: status %d, want 404", resp.StatusCode)
	}

	var sub scenarioStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/scenarios", scenarioDoc, &sub)
	var cancelled scenarioStatus
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/api/v1/scenarios/"+sub.ID, "", &cancelled); resp.StatusCode != 200 {
		t.Errorf("cancel status %d", resp.StatusCode)
	}
	// Artifact path traversal is rejected.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/scenarios/"+sub.ID+"/artifacts/..%2Fsecrets.csv", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Errorf("traversal artifact name: status %d, want 400/404", resp.StatusCode)
	}
}

// TestStatszStore checks the store block appears when a DirStore backs
// the scheduler and counts persisted records.
func TestStatszStore(t *testing.T) {
	dir := t.TempDir()
	store, err := campaign.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, store)

	var sub jobStatus
	doJSON(t, http.MethodPost, ts.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","ranks":1,"sim_steps":1}`, &sub)
	if st := waitState(t, ts.URL+"/api/v1/jobs/"+sub.ID); st.State != "done" {
		t.Fatalf("job ended as %s", st.State)
	}

	var stats statszResponse
	doJSON(t, http.MethodGet, ts.URL+"/statsz", "", &stats)
	if stats.Store == nil {
		t.Fatal("statsz lacks the store block despite a DirStore")
	}
	if stats.Store.Dir != dir || stats.Store.Records != 1 || stats.Store.Bytes <= 0 {
		t.Errorf("store stats = %+v, want 1 record under %s", stats.Store, dir)
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
