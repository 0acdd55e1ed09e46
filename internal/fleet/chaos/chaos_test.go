package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/fleet"
	"github.com/spechpc/spechpc-sim/internal/fleet/chaos"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/service"
)

// scenarioDoc is the campaign both fleet passes and the single-process
// baseline run: two kernels over six rank points, 12 unique jobs —
// enough for rendezvous hashing to give every worker a share.
const scenarioDoc = `{
  "name": "chaosfig",
  "sweeps": [
    {"benchmarks": ["tealeaf", "lbm"], "clusters": ["ClusterA"],
     "points": [1, 2, 3, 4, 6, 8], "metrics": ["wall_s"]}
  ]
}`

// testFleet is one coordinator plus its workers, every dispatch routed
// through a chaos transport.
type testFleet struct {
	ctl        *chaos.Controller
	registry   *fleet.Registry
	dispatcher *fleet.Dispatcher
	coordSched *campaign.Scheduler
	coordTS    *httptest.Server
	workers    map[string]*workerProc // id -> process
}

type workerProc struct {
	id    string
	ts    *httptest.Server
	sched *campaign.Scheduler
}

// startFleet stands up a coordinator (DirStore-backed, chaos-wrapped
// dispatcher) and n workers writing through RemoteStore to the
// coordinator — the production topology in one test process.
func startFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	store, err := campaign.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{
		ctl:      chaos.New(),
		registry: fleet.NewRegistry(time.Hour, 2*time.Hour), // failure counts, not aging, drive state here
		workers:  make(map[string]*workerProc),
	}
	f.dispatcher = fleet.NewDispatcher(f.registry, &http.Client{Transport: f.ctl.Transport(nil)})
	f.dispatcher.Sleep = func(time.Duration) {} // no real backoff waits in tests

	f.coordSched = campaign.NewScheduler(4, store)
	coordSrv := service.New(f.coordSched, service.Options{
		Quick: true, ArtifactDir: t.TempDir(),
		Fleet: &fleet.Coordinator{Registry: f.registry, Dispatcher: f.dispatcher},
	})
	f.coordTS = httptest.NewServer(coordSrv.Handler())
	t.Cleanup(func() { f.coordTS.Close(); coordSrv.Close(); f.coordSched.Close() })

	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("w%d", i)
		wsched := campaign.NewScheduler(2, &fleet.RemoteStore{Base: f.coordTS.URL, WorkerID: id})
		wsrv := service.New(wsched, service.Options{Quick: true, ArtifactDir: t.TempDir()})
		wts := httptest.NewServer(wsrv.Handler())
		t.Cleanup(func() { wts.Close(); wsrv.Close(); wsched.Close() })
		if err := f.registry.Register(fleet.Worker{ID: id, URL: wts.URL}); err != nil {
			t.Fatal(err)
		}
		f.workers[id] = &workerProc{id: id, ts: wts, sched: wsched}
	}
	return f
}

// expansionKeys expands scenarioDoc exactly as the service will and
// returns the campaign keys, so tests can reason about rendezvous
// placement before submitting anything.
func expansionKeys(t *testing.T) []string {
	t.Helper()
	sc, err := scenario.Parse([]byte(scenarioDoc), "local")
	if err != nil {
		t.Fatal(err)
	}
	p := &scenario.Planner{Quick: true}
	sweeps, pinned, err := p.ExpandParts(sc)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, batch := range sweeps {
		for _, rs := range batch {
			keys = append(keys, campaign.Key(rs))
		}
	}
	for _, rs := range pinned {
		keys = append(keys, campaign.Key(rs))
	}
	return keys
}

// runScenario submits scenarioDoc to the coordinator and polls until
// the run reaches a terminal state, returning (id, state).
func runScenario(t *testing.T, baseURL string) (id, state string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/api/v1/scenarios", "application/json",
		strings.NewReader(scenarioDoc))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scenario submit = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(120 * time.Second)
	for st.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("scenario %s never finished", st.ID)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(baseURL + "/api/v1/scenarios/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
	}
	if st.Error != "" {
		t.Logf("scenario %s error: %s", st.ID, st.Error)
	}
	return st.ID, st.State
}

// fetchOutput reads a finished scenario's rendered output.
func fetchOutput(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/v1/scenarios/" + id + "/output")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestKillOneOfThreeWorkersMidCampaign is the headline fault drill: a
// three-worker fleet runs the scenario while the worker owning the most
// keys is crashed after completing exactly one dispatch. The campaign
// must still finish with zero lost jobs, zero duplicate fresh
// simulations fleet-wide, retries and re-sharding visible in the
// dispatcher counters, and output byte-identical to a single-process
// run of the same scenario. A second pass must be served entirely from
// the store: fleet-wide fresh_sims unchanged.
func TestKillOneOfThreeWorkersMidCampaign(t *testing.T) {
	f := startFleet(t, 3)

	// Pick the victim from rendezvous ownership of the expansion keys —
	// deterministic, since placement depends only on key bytes and the
	// stable worker IDs.
	keys := expansionKeys(t)
	candidates := []fleet.Worker{{ID: "w1"}, {ID: "w2"}, {ID: "w3"}}
	owned := map[string]int{}
	for _, k := range keys {
		w, ok := fleet.Pick(k, candidates)
		if !ok {
			t.Fatal("Pick failed on a non-empty candidate set")
		}
		owned[w.ID]++
	}
	victim := "w1"
	for id, n := range owned {
		if n > owned[victim] {
			victim = id
		}
	}
	if owned[victim] < 2 {
		t.Fatalf("victim %s owns %d of %d keys; need >= 2 for a mid-campaign crash (ownership %v)",
			victim, owned[victim], len(keys), owned)
	}

	// Crash the victim after one completed dispatch: it does real work
	// first, then every further request to it fails before arriving —
	// no torn responses, no work lost in flight.
	f.ctl.KillAfter(chaos.Host(f.workers[victim].ts.URL), 1)

	if _, state := runScenario(t, f.coordTS.URL); state != "done" {
		t.Fatalf("campaign with a mid-run worker crash ended as %q, want done", state)
	}

	// Zero lost jobs, zero duplicates: the coordinator simulated each
	// unique key exactly once fleet-wide, and the per-worker fresh-sim
	// counts add up to exactly that.
	fresh := f.coordSched.Stats().Misses
	if fresh != len(keys) {
		t.Errorf("fleet-wide fresh sims = %d, want %d (one per unique key)", fresh, len(keys))
	}
	sum := 0
	for _, w := range f.workers {
		sum += w.sched.Stats().Misses
	}
	if sum != fresh {
		t.Errorf("worker fresh sims sum to %d, coordinator dispatched %d — duplicates or losses", sum, fresh)
	}
	if got := f.workers[victim].sched.Stats().Misses; got != 1 {
		t.Errorf("victim simulated %d jobs, want exactly the 1 allowed before the crash", got)
	}

	ds := f.dispatcher.Stats()
	if ds.Retries < 1 || ds.Resharded < 1 {
		t.Errorf("dispatcher stats = %+v, want the victim's lost jobs retried and re-sharded", ds)
	}
	for _, ws := range f.registry.Snapshot() {
		if ws.ID == victim && ws.State == fleet.Alive {
			t.Errorf("victim %s still Alive after failed dispatches", victim)
		}
	}

	// Second pass: everything is memoized; no new fresh sims anywhere.
	if _, state := runScenario(t, f.coordTS.URL); state != "done" {
		t.Fatalf("second pass ended as %q, want done", state)
	}
	if got := f.coordSched.Stats().Misses; got != fresh {
		t.Errorf("second pass grew fleet-wide fresh sims %d -> %d; store should have served it all", fresh, got)
	}
	if got := f.dispatcher.Stats().Dispatched; got != ds.Dispatched {
		t.Errorf("second pass dispatched %d new jobs, want 0", got-ds.Dispatched)
	}
}

// TestFleetOutputMatchesSingleProcess renders the scenario once through
// a healthy fleet and once in-process, and requires byte-identical
// output: distribution must be invisible in the figures.
func TestFleetOutputMatchesSingleProcess(t *testing.T) {
	f := startFleet(t, 3)
	id, state := runScenario(t, f.coordTS.URL)
	if state != "done" {
		t.Fatalf("fleet pass ended as %q, want done", state)
	}
	fleetOut := fetchOutput(t, f.coordTS.URL, id)

	sc, err := scenario.Parse([]byte(scenarioDoc), "local")
	if err != nil {
		t.Fatal(err)
	}
	local := &scenario.Planner{Scheduler: campaign.NewScheduler(2, nil), Quick: true}
	var buf bytes.Buffer
	if err := local.Execute(sc, &buf, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetOut, buf.Bytes()) {
		t.Errorf("fleet output (%d bytes) differs from single-process output (%d bytes)",
			len(fleetOut), buf.Len())
	}
}

// lockedClock is a goroutine-safe manual clock for the partition test.
type lockedClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *lockedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestHeartbeatPartitionAndHeal drives the production Join loop through
// a scripted partition: the worker registers and stays Alive, its
// heartbeats are then dropped until the coordinator ages it to Dead,
// and healing the partition resurrects it — all on an injected clock,
// so the thresholds are exact.
func TestHeartbeatPartitionAndHeal(t *testing.T) { heartbeatPartitionAndHeal(t, 0) }

// TestHeartbeatPartitionAndHealDelayed runs the partition drill with
// 30 ms of latency on requests to the coordinator from just before the
// partition, which keeps a heartbeat sent before the drop in flight
// while the drop starts. Such a heartbeat is real evidence that the
// worker lives; the drill must not let it land after the clock jump.
func TestHeartbeatPartitionAndHealDelayed(t *testing.T) {
	heartbeatPartitionAndHeal(t, 30*time.Millisecond)
}

// heartbeatPartitionAndHeal is the partition drill with the given
// latency on the coordinator host.
func heartbeatPartitionAndHeal(t *testing.T, delay time.Duration) {
	clk := &lockedClock{now: time.Unix(1_700_000_000, 0)}
	registry := fleet.NewRegistry(3*time.Second, 10*time.Second)
	registry.SetClock(clk.Now)

	sched := campaign.NewScheduler(1, nil)
	srv := service.New(sched, service.Options{
		Quick: true, ArtifactDir: t.TempDir(),
		Fleet: fleet.NewCoordinator(registry, nil),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); sched.Close() })

	ctl := chaos.New()
	ctx, cancel := context.WithCancel(context.Background())
	joinDone := make(chan error, 1)
	go func() {
		joinDone <- fleet.Join(ctx, fleet.JoinConfig{
			Coordinator: ts.URL,
			Self:        fleet.Worker{ID: "jw", URL: "http://worker.invalid"},
			Every:       2 * time.Millisecond,
			Client:      &http.Client{Transport: ctl.Transport(nil)},
		})
	}()
	t.Cleanup(cancel)

	stateOf := func() (fleet.State, bool) {
		for _, ws := range registry.Snapshot() {
			if ws.ID == "jw" {
				return ws.State, true
			}
		}
		return 0, false
	}
	waitFor := func(want fleet.State, context string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st, ok := stateOf(); ok && st == want {
				return
			}
			if time.Now().After(deadline) {
				st, ok := stateOf()
				t.Fatalf("%s: worker state = %v (registered=%v), want %v", context, st, ok, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor(fleet.Alive, "after join")
	if delay > 0 {
		// Heartbeats sent from now on take delay to arrive; one sent
		// within the next tick is still halfway there at the partition.
		ctl.Delay(chaos.Host(ts.URL), delay)
		time.Sleep(delay / 2)
	}

	// Partition: heartbeats vanish, the clock marches past DeadAfter.
	// Join sends one heartbeat at a time, so once one is dropped no
	// earlier heartbeat is still in flight; advancing sooner would let
	// a late one land after the jump and stamp the worker alive.
	ctl.DropHeartbeats("jw")
	deadline := time.Now().Add(10 * time.Second)
	for ctl.HeartbeatsDropped("jw") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat dropped within 10s of the partition")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(11 * time.Second)
	waitFor(fleet.Dead, "after 11s of heartbeat silence")
	// The drop is total, so the worker cannot flap back on its own.
	time.Sleep(20 * time.Millisecond)
	if st, _ := stateOf(); st != fleet.Dead {
		t.Fatalf("partitioned worker resurrected itself: %v", st)
	}

	// Heal: the very next delivered heartbeat restores liveness.
	ctl.DeliverHeartbeats("jw")
	waitFor(fleet.Alive, "after partition heals")

	cancel()
	if err := <-joinDone; !errors.Is(err, context.Canceled) {
		t.Errorf("Join returned %v, want context.Canceled", err)
	}
}

// TestControllerPrimitives exercises each fault primitive against a
// live server: kill/revive, counted KillAfter, pause/resume honoring
// request contexts, and added latency.
func TestControllerPrimitives(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	host := chaos.Host(backend.URL)

	ctl := chaos.New()
	client := &http.Client{Transport: ctl.Transport(nil)}
	get := func() error {
		resp, err := client.Get(backend.URL)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}

	if err := get(); err != nil {
		t.Fatalf("fault-free transport failed: %v", err)
	}

	ctl.Kill(host)
	if err := get(); err == nil {
		t.Fatal("request to a killed host succeeded")
	}
	ctl.Revive(host)
	if err := get(); err != nil {
		t.Fatalf("revived host still failing: %v", err)
	}

	ctl.KillAfter(host, 2)
	for i := 0; i < 2; i++ {
		if err := get(); err != nil {
			t.Fatalf("KillAfter(2): round trip %d failed early: %v", i+1, err)
		}
	}
	if err := get(); err == nil {
		t.Fatal("KillAfter(2): third round trip succeeded")
	}
	ctl.Revive(host)

	// Pause holds requests until resume; a paused request still honors
	// its context deadline.
	ctl.Pause(host)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, backend.URL, nil)
	if _, err := client.Do(req); err == nil {
		t.Fatal("paused request completed before resume")
	}
	cancel()
	released := make(chan error, 1)
	go func() { released <- get() }()
	select {
	case err := <-released:
		t.Fatalf("paused request returned before Resume: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	ctl.Resume(host)
	if err := <-released; err != nil {
		t.Fatalf("request after Resume failed: %v", err)
	}

	ctl.Delay(host, 15*time.Millisecond)
	start := time.Now()
	if err := get(); err != nil {
		t.Fatalf("delayed request failed: %v", err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("delayed request returned in %v, want >= 15ms", el)
	}
	ctl.Delay(host, 0)
}

// TestHeartbeatDropIsSelective checks heartbeat drops key on the
// sending worker and leave all other traffic untouched.
func TestHeartbeatDropIsSelective(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	ctl := chaos.New()
	client := &http.Client{Transport: ctl.Transport(nil)}
	send := func(path, worker string) error {
		req, _ := http.NewRequest(http.MethodPost, backend.URL+path, strings.NewReader("{}"))
		if worker != "" {
			req.Header.Set(fleet.WorkerHeader, worker)
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}

	ctl.DropHeartbeats("w1")
	if err := send(fleet.HeartbeatPath, "w1"); err == nil {
		t.Error("dropped worker's heartbeat got through")
	}
	if err := send(fleet.HeartbeatPath, "w2"); err != nil {
		t.Errorf("other worker's heartbeat dropped: %v", err)
	}
	if err := send(fleet.RunPath, "w1"); err != nil {
		t.Errorf("non-heartbeat traffic from the dropped worker failed: %v", err)
	}
	ctl.DeliverHeartbeats("w1")
	if err := send(fleet.HeartbeatPath, "w1"); err != nil {
		t.Errorf("heartbeat still dropped after DeliverHeartbeats: %v", err)
	}
}
