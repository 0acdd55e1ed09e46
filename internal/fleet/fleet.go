// Package fleet turns a set of spechpcd processes into one
// failure-tolerant serving tier. A coordinator process owns the front
// door: submissions flow through its ordinary campaign.Scheduler (so
// priority queueing, cross-request coalescing, the memo, and store
// write-through all apply fleet-wide), but the scheduler's Runner is
// replaced by a Dispatcher that ships each job to a worker over HTTP.
// Workers are plain spechpcd processes that register with the
// coordinator, heartbeat it, and write results to the coordinator's
// store through RemoteStore, so every result is visible cluster-wide.
//
// Placement uses rendezvous (highest-random-weight) hashing of the
// content-addressed campaign key over the live worker set: identical
// specs land on the same worker no matter which client submitted them,
// and losing a worker only moves that worker's share of keys. Worker
// loss is detected by the Registry's heartbeat state machine
// (Alive → Suspect → Dead) and tolerated by the Dispatcher's capped
// exponential backoff with jitter, which re-ranks each retry over the
// surviving workers. The front door itself is protected by Admission
// (per-client token buckets, queue-depth shedding with priority lanes,
// optional degradation to the surrogate fast tier).
//
// The package is transport-thin by design: every wire exchange is JSON
// over the handful of /api/v1/fleet/* routes declared below, served by
// internal/service, so a test can stand up a whole fleet with httptest
// servers and the chaos subpackage's fault-injecting transport.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// Fleet protocol routes, served by internal/service. Workers call
// RegisterPath / HeartbeatPath / the store routes on the coordinator;
// the coordinator calls RunPath on workers; WorkersPath is for
// operators. The store routes use StorePathPrefix + <campaign key>.
const (
	RunPath         = "/api/v1/fleet/run"
	RegisterPath    = "/api/v1/fleet/register"
	HeartbeatPath   = "/api/v1/fleet/heartbeat"
	WorkersPath     = "/api/v1/fleet/workers"
	StorePathPrefix = "/api/v1/fleet/store/"

	// WorkerHeader carries the sending worker's ID on heartbeats and
	// store traffic — the chaos harness keys heartbeat drops on it, and
	// log lines use it to attribute writes.
	WorkerHeader = "X-Fleet-Worker"
)

// RunRequest is the coordinator→worker job dispatch body. The response
// is a campaign.Record (the store exchange format), so a dispatch and a
// store read deserialize identically.
type RunRequest struct {
	Spec spec.RunSpec `json:"spec"`
}

// RegisterRequest is the worker→coordinator enrolment body.
type RegisterRequest struct {
	Worker Worker `json:"worker"`
}

// HeartbeatRequest is the worker→coordinator liveness ping body.
type HeartbeatRequest struct {
	ID string `json:"id"`
}

// State is a worker's health as judged by the coordinator's Registry.
type State int

const (
	// Alive: heartbeats current, no outstanding dispatch failures.
	Alive State = iota
	// Suspect: a heartbeat is overdue or a dispatch failed — still
	// eligible for work, but only after every Alive worker is ruled out.
	Suspect
	// Dead: heartbeats long overdue or repeated dispatch failures; the
	// worker receives no jobs until it re-registers or heartbeats again.
	Dead
)

// String returns the lowercase state name used in /statsz and logs.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Worker identifies one spechpcd worker process. ID must be stable
// across restarts (it is the rendezvous-hash identity, so a stable ID
// keeps a restarted worker's key share); URL is the base HTTP address
// the coordinator dispatches to.
type Worker struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Capacity int    `json:"capacity,omitempty"` // advertised sim workers, informational
}

// WorkerStatus is a point-in-time health snapshot of one worker.
type WorkerStatus struct {
	Worker
	State    State     `json:"state"`
	LastSeen time.Time `json:"last_seen"`
	Fails    int       `json:"fails"`
}

// deadFailures is the dispatch-failure count that marks a worker Dead
// without waiting for its heartbeats to age out: the first failure
// makes it Suspect (skipped while alive workers remain), the second —
// necessarily from a retry or another job after the first — kills it.
const deadFailures = 2

// Registry tracks worker membership and health on the coordinator. A
// worker's state is derived, never stored: from the age of its last
// heartbeat (or successful dispatch) against the SuspectAfter /
// DeadAfter thresholds, and from its consecutive dispatch failures.
// All methods are safe for concurrent use.
type Registry struct {
	suspectAfter time.Duration
	deadAfter    time.Duration
	clock        func() time.Time // injectable for boundary tests

	mu      sync.Mutex
	workers map[string]*workerEntry
}

type workerEntry struct {
	w        Worker
	lastSeen time.Time
	fails    int
}

// Default health thresholds: a worker is Suspect after 3s of heartbeat
// silence and Dead after 10s. Production fleets heartbeat every ~1s
// (DefaultHeartbeatEvery), so one lost ping is tolerated and three in a
// row make the worker suspect.
const (
	DefaultSuspectAfter   = 3 * time.Second
	DefaultDeadAfter      = 10 * time.Second
	DefaultHeartbeatEvery = time.Second
)

// NewRegistry builds a registry with the given heartbeat-age
// thresholds; zero durations take the package defaults.
func NewRegistry(suspectAfter, deadAfter time.Duration) *Registry {
	if suspectAfter <= 0 {
		suspectAfter = DefaultSuspectAfter
	}
	if deadAfter <= 0 {
		deadAfter = DefaultDeadAfter
	}
	return &Registry{
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		clock:        time.Now,
		workers:      make(map[string]*workerEntry),
	}
}

// SetClock replaces the registry's time source — tests pin state
// transitions to exact interval boundaries with it. Not for production.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = now
}

// Register enrols (or re-enrols) a worker and marks it freshly alive.
// Re-registration under an existing ID replaces the URL and clears the
// failure count — the restart path for a crashed worker.
func (r *Registry) Register(w Worker) error {
	if w.ID == "" || w.URL == "" {
		return fmt.Errorf("fleet: register needs a worker id and url, got %+v", w)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers[w.ID] = &workerEntry{w: w, lastSeen: r.clock()}
	return nil
}

// Heartbeat refreshes a worker's liveness. It reports false for an
// unknown ID — the signal for the worker to re-register (a coordinator
// restart loses membership; workers must survive that).
func (r *Registry) Heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.workers[id]
	if !ok {
		return false
	}
	e.lastSeen = r.clock()
	return true
}

// ReportFailure records a failed dispatch to the worker: one failure
// makes it Suspect, deadFailures make it Dead.
func (r *Registry) ReportFailure(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.workers[id]; ok {
		e.fails++
	}
}

// ReportSuccess records a completed dispatch — proof of liveness at
// least as strong as a heartbeat, so it also refreshes lastSeen and
// clears the failure count.
func (r *Registry) ReportSuccess(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.workers[id]; ok {
		e.fails = 0
		e.lastSeen = r.clock()
	}
}

// state derives the entry's health at time now.
func (r *Registry) state(e *workerEntry, now time.Time) State {
	age := now.Sub(e.lastSeen)
	switch {
	case e.fails >= deadFailures || age >= r.deadAfter:
		return Dead
	case e.fails > 0 || age >= r.suspectAfter:
		return Suspect
	default:
		return Alive
	}
}

// InState returns the workers currently in exactly state s, sorted by
// ID for deterministic iteration.
func (r *Registry) InState(s State) []Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	var out []Worker
	for _, e := range r.workers {
		if r.state(e, now) == s {
			out = append(out, e.w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counts returns the number of workers in each state — the /statsz
// worker-health gauge.
func (r *Registry) Counts() (alive, suspect, dead int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	for _, e := range r.workers {
		switch r.state(e, now) {
		case Alive:
			alive++
		case Suspect:
			suspect++
		default:
			dead++
		}
	}
	return alive, suspect, dead
}

// Snapshot returns every registered worker's status, sorted by ID —
// the WorkersPath response body.
func (r *Registry) Snapshot() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	out := make([]WorkerStatus, 0, len(r.workers))
	for _, e := range r.workers {
		out = append(out, WorkerStatus{
			Worker: e.w, State: r.state(e, now), LastSeen: e.lastSeen, Fails: e.fails,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Coordinator bundles the pieces a coordinator-mode spechpcd plugs into
// its service: the membership registry and the dispatching runner.
type Coordinator struct {
	Registry   *Registry
	Dispatcher *Dispatcher
}

// NewCoordinator wires a registry and a dispatcher over it with the
// given HTTP client (nil means http.DefaultClient).
func NewCoordinator(reg *Registry, client *http.Client) *Coordinator {
	return &Coordinator{Registry: reg, Dispatcher: NewDispatcher(reg, client)}
}

// CoordinatorStats is the coordinator's /statsz block: worker health
// from the registry plus the dispatcher's retry/reshard counters.
type CoordinatorStats struct {
	WorkersAlive   int `json:"workers_alive"`
	WorkersSuspect int `json:"workers_suspect"`
	WorkersDead    int `json:"workers_dead"`
	DispatchStats
}

// Stats snapshots the registry's health counts and the dispatch
// counters.
func (c *Coordinator) Stats() CoordinatorStats {
	st := CoordinatorStats{DispatchStats: c.Dispatcher.Stats()}
	st.WorkersAlive, st.WorkersSuspect, st.WorkersDead = c.Registry.Counts()
	return st
}

// Runner adapts the dispatcher to the scheduler's Runner seam. Jobs
// that keep full event traces run locally on the coordinator — event
// timelines are deliberately not part of the wire format (they are not
// part of the store format either), and such jobs are interactive
// one-offs, not campaign load.
func (c *Coordinator) Runner() campaign.Runner {
	return func(rs spec.RunSpec) (spec.RunResult, error) {
		if rs.KeepTrace {
			return spec.Run(rs)
		}
		return c.Dispatcher.Run(rs)
	}
}

// JoinConfig configures a worker's membership loop.
type JoinConfig struct {
	Coordinator string        // coordinator base URL, e.g. http://host:port
	Self        Worker        // this worker's identity and advertised URL
	Every       time.Duration // heartbeat period; zero means DefaultHeartbeatEvery
	Client      *http.Client  // nil means http.DefaultClient
}

// Join registers the worker with the coordinator and heartbeats it
// until ctx is cancelled, re-registering whenever the coordinator stops
// recognizing the worker (its restart loses membership state).
// Transient errors are retried on the next tick — the coordinator's
// suspect/dead thresholds are the authority on how much silence is
// tolerable, so Join itself never gives up. The initial registration is
// also retried, so workers may start before their coordinator.
func Join(ctx context.Context, cfg JoinConfig) error {
	if cfg.Coordinator == "" || cfg.Self.ID == "" || cfg.Self.URL == "" {
		return fmt.Errorf("fleet: join needs a coordinator URL and a worker id+url")
	}
	every := cfg.Every
	if every <= 0 {
		every = DefaultHeartbeatEvery
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}

	registered := register(ctx, client, cfg) == nil
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		if !registered {
			registered = register(ctx, client, cfg) == nil
			continue
		}
		ok, err := heartbeat(ctx, client, cfg)
		if err == nil && !ok {
			registered = register(ctx, client, cfg) == nil
		}
	}
}

func register(ctx context.Context, client *http.Client, cfg JoinConfig) error {
	body, _ := json.Marshal(RegisterRequest{Worker: cfg.Self})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cfg.Coordinator+RegisterPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(WorkerHeader, cfg.Self.ID)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: register: coordinator answered %s", resp.Status)
	}
	return nil
}

// heartbeat pings the coordinator; ok=false with nil err means the
// coordinator no longer knows this worker and it must re-register.
func heartbeat(ctx context.Context, client *http.Client, cfg JoinConfig) (ok bool, err error) {
	body, _ := json.Marshal(HeartbeatRequest{ID: cfg.Self.ID})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cfg.Coordinator+HeartbeatPath, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(WorkerHeader, cfg.Self.ID)
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound, http.StatusGone:
		return false, nil
	default:
		return false, fmt.Errorf("fleet: heartbeat: coordinator answered %s", resp.Status)
	}
}
