package service

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/fleet"
)

// statszKeys fetches /statsz and returns the sorted dotted paths of its
// leaves (numbers, strings and nulls), so a schema change shows up as a
// key-set diff independent of the counter values.
func statszKeys(t *testing.T, base string) []string {
	t.Helper()
	var body map[string]any
	doJSON(t, http.MethodGet, base+"/statsz", "", &body)
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			keys = append(keys, prefix)
			return
		}
		for k, child := range obj {
			if prefix != "" {
				k = prefix + "." + k
			}
			walk(k, child)
		}
	}
	walk("", body)
	sort.Strings(keys)
	return keys
}

// statszCommonKeys are the blocks every server reports.
var statszCommonKeys = []string{
	"active",
	"admission.admitted", "admission.degraded",
	"admission.queue_shed", "admission.rate_limited",
	"campaign.cancelled", "campaign.coalesced", "campaign.fresh_sims",
	"campaign.jobs", "campaign.memo_hits", "campaign.store_faults",
	"campaign.store_hits", "campaign.surrogate_hits",
	"campaign.surrogate_misses", "campaign.surrogate_refused",
	"jobs_submitted",
	"psim.adaptive_windows", "psim.dispatched_windows",
	"psim.idle_partition_windows", "psim.mail_merged",
	"psim.narrowest_window_s", "psim.runs", "psim.widest_window_s",
	"psim.windows",
	"queue_depth", "scenarios_submitted", "workers",
}

// TestStatszKeys pins the /statsz schema — the sorted set of dotted key
// paths — for a store-backed server, a server with a surrogate index,
// and a fleet coordinator. Scrapers and the smoke scripts read these
// names, so any rename or dropped counter must show up here.
func TestStatszKeys(t *testing.T) {
	with := func(extra ...string) []string {
		keys := append(append([]string{}, statszCommonKeys...), extra...)
		sort.Strings(keys)
		return keys
	}

	store, err := campaign.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, storeTS, _ := newTestServer(t, store)
	surrTS, _, _ := newSurrogateServer(t)
	sched := campaign.NewScheduler(2, nil)
	coord := fleet.NewCoordinator(fleet.NewRegistry(time.Hour, 2*time.Hour), nil)
	srv := New(sched, Options{Quick: true, ArtifactDir: t.TempDir(), Fleet: coord})
	coordTS := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { coordTS.Close(); srv.Close(); sched.Close() })

	cases := []struct {
		name string
		url  string
		want []string
	}{
		{"dirstore", storeTS.URL, with("store.bytes", "store.dir", "store.records")},
		{"surrogate", surrTS.URL, with("store",
			"surrogate.families", "surrogate.models", "surrogate.observed")},
		{"coordinator", coordTS.URL, with("store",
			"fleet.dispatched", "fleet.no_workers", "fleet.resharded",
			"fleet.retries", "fleet.workers_alive", "fleet.workers_dead",
			"fleet.workers_suspect")},
	}
	for _, c := range cases {
		got := statszKeys(t, c.url)
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s /statsz keys:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestStatszPsimPerServer runs a partitioned multi-node job on one
// server and checks a second server in the same process still reports
// a zero psim block: window accounting belongs to the scheduler that
// ran the job, not to the process.
func TestStatszPsimPerServer(t *testing.T) {
	_, tsA, _ := newTestServer(t, nil)
	_, tsB, _ := newTestServer(t, nil)

	var sub jobStatus
	doJSON(t, http.MethodPost, tsA.URL+"/api/v1/jobs",
		`{"benchmark":"tealeaf","cluster":"A","class":"tiny","ranks":100,"sim_steps":1}`, &sub)
	if st := waitState(t, tsA.URL+"/api/v1/jobs/"+sub.ID); st.State != "done" {
		t.Fatalf("multi-node job finished as %s (%s)", st.State, st.Error)
	}

	var a, b struct {
		Psim map[string]float64 `json:"psim"`
	}
	doJSON(t, http.MethodGet, tsA.URL+"/statsz", "", &a)
	doJSON(t, http.MethodGet, tsB.URL+"/statsz", "", &b)
	if a.Psim["runs"] != 1 || a.Psim["windows"] <= 0 {
		t.Errorf("server A psim = %v, want 1 run with windows", a.Psim)
	}
	if len(b.Psim) == 0 {
		t.Fatal("server B /statsz lacks the psim block")
	}
	for k, v := range b.Psim {
		if v != 0 {
			t.Errorf("server B psim.%s = %g, want 0: it ran no job", k, v)
		}
	}
}
