// Package service is the HTTP serving layer over the asynchronous
// campaign scheduler: the paper's query shape — "run this benchmark x
// cluster x rank/clock point and derive metrics" — exposed as a JSON
// API instead of a CLI invocation.
//
// A Server wraps one long-lived campaign.Scheduler. Clients submit
// single jobs or whole declarative scenarios (the docs/SCENARIOS.md
// format), poll their status, and fetch results as JSON or CSV.
// Identical submissions — across requests, and across HTTP and any
// in-process planner use of the same scheduler — coalesce onto one
// simulation; with a persistent store attached, results also survive
// restarts, so a repeated query costs a disk read. cmd/spechpcd is the
// daemon front end.
//
// With a fleet.Coordinator attached (Options.Fleet) the same server is
// the fleet front door: submissions shard across registered workers by
// campaign key, and the /api/v1/fleet/* routes carry the membership,
// dispatch, and shared-store protocol (see docs/FLEET.md). Admission
// control (Options.Admission) gates the public submission routes with
// per-client token buckets and queue-depth shedding.
//
// Endpoints (all under the mux returned by Handler):
//
//	GET    /healthz                       liveness probe
//	GET    /readyz                        readiness probe (store+scheduler+workers)
//	GET    /statsz                        scheduler + store counters
//	GET    /api/v1/benchmarks             registered kernels
//	GET    /api/v1/clusters               registered clusters
//	POST   /api/v1/jobs                   submit one job
//	GET    /api/v1/jobs                   list submitted jobs
//	GET    /api/v1/jobs/{id}              job status + result
//	DELETE /api/v1/jobs/{id}              cancel a queued job
//	GET    /api/v1/jobs/{id}/csv          result metrics as CSV
//	POST   /api/v1/scenarios              submit a scenario document
//	GET    /api/v1/scenarios              list submitted scenarios
//	GET    /api/v1/scenarios/{id}         per-sweep progress
//	DELETE /api/v1/scenarios/{id}         cancel queued scenario jobs
//	GET    /api/v1/scenarios/{id}/output  rendered plots/tables (streams)
//	GET    /api/v1/scenarios/{id}/artifacts        CSV artifact list
//	GET    /api/v1/scenarios/{id}/artifacts/{name} one CSV artifact
//	POST   /api/v1/fleet/run              execute one dispatched job (worker)
//	POST   /api/v1/fleet/register         enrol a worker (coordinator)
//	POST   /api/v1/fleet/heartbeat        refresh worker liveness (coordinator)
//	GET    /api/v1/fleet/workers          worker health snapshot (coordinator)
//	GET    /api/v1/fleet/store/{key}      read one shared-store record
//	PUT    /api/v1/fleet/store/{key}      write one shared-store record
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/fleet"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

// Options tunes a Server.
type Options struct {
	// Quick runs scenarios at reduced sweep resolution (the planner's
	// quick mode) — smoke tests and demo deployments.
	Quick bool
	// DefaultClusters resolves scenario sweeps that name no clusters;
	// empty means the paper's two systems.
	DefaultClusters []string
	// ArtifactDir is where scenario CSV artifacts are written (one
	// subdirectory per scenario). Empty selects a temp directory.
	ArtifactDir string
	// Surrogate attaches the analytic fast tier: New registers the index
	// as the scheduler's predictor (and feedback observer), mode=fast
	// submissions may be answered from its fitted models, and /statsz
	// gains a surrogate block. Nil serves every query exactly.
	Surrogate *surrogate.Index
	// Fleet makes this server a coordinator: the scheduler's runner is
	// replaced by the coordinator's dispatcher (fresh simulations run on
	// registered workers, not in process), the fleet membership routes
	// come alive, and /readyz requires at least one non-dead worker.
	Fleet *fleet.Coordinator
	// Admission tunes the front-door gate on the public submission
	// routes; the zero value admits everything.
	Admission fleet.AdmissionConfig
	// Degraded lets saturation-time job submissions fall back to the
	// surrogate fast tier (mode=fast with an error bound) instead of
	// being shed — only effective with a Surrogate attached.
	Degraded bool
}

// Server serves the campaign scheduler over HTTP. Construct with New;
// all methods are safe for concurrent use.
type Server struct {
	sched *campaign.Scheduler
	opts  Options

	mu       sync.Mutex
	jobs     map[string]*jobSub
	jobOrder []string
	runs     map[string]*scenarioRun
	runOrder []string
	nextJob  int
	nextRun  int

	// Store-usage cache for /statsz: walking a big store per scrape
	// would be O(records) disk I/O, so the numbers refresh at most once
	// per storeStatsTTL.
	storeStats   *campaign.StoreUsage
	storeStatsAt time.Time

	admission *fleet.Admission
	// draining flips first in Close: /readyz goes unready and dispatched
	// fleet jobs are refused while in-flight work still completes.
	draining atomic.Bool
}

// New wraps a scheduler in a Server. The scheduler may be shared with
// in-process planners; the service's submissions coalesce with theirs.
func New(sched *campaign.Scheduler, opts Options) *Server {
	if opts.Surrogate != nil {
		sched.SetPredictor(opts.Surrogate)
	}
	if opts.Fleet != nil {
		sched.SetRunner(opts.Fleet.Runner())
	}
	return &Server{
		sched:     sched,
		opts:      opts,
		jobs:      map[string]*jobSub{},
		runs:      map[string]*scenarioRun{},
		admission: fleet.NewAdmission(opts.Admission),
	}
}

// Retention caps: the daemon keeps a bounded history of finished
// submissions so a sustained workload cannot grow its memory (and, for
// temp scenario artifacts, /tmp) without bound. Only resolved entries
// are evicted — in-flight work always survives — oldest first; with a
// persistent store attached, an evicted job's result remains one
// identical resubmission away.
const (
	maxRetainedJobs = 1024
	maxRetainedRuns = 64
)

// evictJobsLocked trims resolved job history down to the cap. Callers
// hold s.mu.
func (s *Server) evictJobsLocked() {
	if len(s.jobOrder) <= maxRetainedJobs {
		return
	}
	kept := s.jobOrder[:0]
	over := len(s.jobOrder) - maxRetainedJobs
	for _, id := range s.jobOrder {
		js := s.jobs[id]
		if over > 0 {
			if _, resolved := js.ticket.Outcome(); resolved {
				delete(s.jobs, id)
				over--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// evictRunsLocked trims finished scenario history down to the cap,
// removing temp artifact directories. Callers hold s.mu.
func (s *Server) evictRunsLocked() {
	if len(s.runOrder) <= maxRetainedRuns {
		return
	}
	kept := s.runOrder[:0]
	over := len(s.runOrder) - maxRetainedRuns
	for _, id := range s.runOrder {
		run := s.runs[id]
		if over > 0 {
			if state, _ := run.snapshot(); state != "running" {
				delete(s.runs, id)
				over--
				if s.opts.ArtifactDir == "" && run.artDir != "" {
					os.RemoveAll(run.artDir)
				}
				continue
			}
		}
		kept = append(kept, id)
	}
	s.runOrder = kept
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /api/v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /api/v1/clusters", s.handleClusters)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /api/v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/csv", s.handleJobCSV)
	mux.HandleFunc("POST /api/v1/scenarios", s.handleSubmitScenario)
	mux.HandleFunc("GET /api/v1/scenarios", s.handleListScenarios)
	mux.HandleFunc("GET /api/v1/scenarios/{id}", s.handleScenarioStatus)
	mux.HandleFunc("DELETE /api/v1/scenarios/{id}", s.handleCancelScenario)
	mux.HandleFunc("GET /api/v1/scenarios/{id}/output", s.handleScenarioOutput)
	mux.HandleFunc("GET /api/v1/scenarios/{id}/artifacts", s.handleScenarioArtifacts)
	mux.HandleFunc("GET /api/v1/scenarios/{id}/artifacts/{name}", s.handleScenarioArtifact)
	mux.HandleFunc("POST "+fleet.RunPath, s.handleFleetRun)
	mux.HandleFunc("POST "+fleet.RegisterPath, s.handleFleetRegister)
	mux.HandleFunc("POST "+fleet.HeartbeatPath, s.handleFleetHeartbeat)
	mux.HandleFunc("GET "+fleet.WorkersPath, s.handleFleetWorkers)
	mux.HandleFunc("GET "+fleet.StorePathPrefix+"{key}", s.handleFleetStoreGet)
	mux.HandleFunc("PUT "+fleet.StorePathPrefix+"{key}", s.handleFleetStorePut)
	return mux
}

// planner builds a fresh planner view over the shared scheduler, so
// scenario expansion through it lands on the scheduler every HTTP
// submission shares.
func (s *Server) planner() *scenario.Planner {
	return &scenario.Planner{
		Scheduler:       s.sched,
		Quick:           s.opts.Quick,
		DefaultClusters: s.opts.DefaultClusters,
	}
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders the uniform error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statszResponse is the /statsz schema: each block is the value its
// owner returns, and every count covers this server's scheduler, not
// the whole process. The campaign counter names mirror Stats.String():
// scripts/service_smoke.sh reads fresh_sims to assert a warm service
// re-serves a scenario without simulating.
type statszResponse struct {
	Campaign   campaign.Stats `json:"campaign"`
	Workers    int            `json:"workers"`
	QueueDepth int            `json:"queue_depth"`
	Active     int            `json:"active"`
	Jobs       int            `json:"jobs_submitted"`
	Scenarios  int            `json:"scenarios_submitted"`
	// Store is null unless a DirStore backs the scheduler.
	Store *campaign.StoreUsage `json:"store"`
	// Surrogate is present when an analytic surrogate index is attached
	// (Options.Surrogate).
	Surrogate *surrogate.IndexStats `json:"surrogate,omitempty"`
	// Admission counts front-door outcomes (always present; all zero
	// with the gate disabled).
	Admission fleet.AdmissionStats `json:"admission"`
	// Fleet is present in coordinator mode: worker health plus dispatch
	// retry/reshard counters.
	Fleet *fleet.CoordinatorStats `json:"fleet,omitempty"`
	// Psim is the partitioned-engine window accounting of the fresh
	// simulations this scheduler ran: how many runs used the parallel
	// engine, how many windows they executed, how many of those the
	// earliest-output oracle widened, and how many were handed to worker
	// goroutines. Window spans are virtual seconds.
	Psim psim.Totals `json:"psim"`
}

// handleStatsz reports scheduler and store counters.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	s.mu.Lock()
	jobs, runs := len(s.jobs), len(s.runs)
	s.mu.Unlock()
	resp := statszResponse{
		Campaign:   st,
		Workers:    s.sched.Workers(),
		QueueDepth: s.sched.QueueDepth(),
		Active:     s.sched.Active(),
		Jobs:       jobs,
		Scenarios:  runs,
		Store:      s.storeUsage(),
		Admission:  s.admission.Stats(),
		Psim:       st.Psim,
	}
	if c := s.opts.Fleet; c != nil {
		fs := c.Stats()
		resp.Fleet = &fs
	}
	if idx := s.opts.Surrogate; idx != nil {
		is := idx.Stats()
		resp.Surrogate = &is
	}
	writeJSON(w, http.StatusOK, resp)
}

// storeStatsTTL bounds how often /statsz re-walks the on-disk store.
const storeStatsTTL = 5 * time.Second

// storeUsage returns the (possibly cached) store size block, or nil
// when no DirStore backs the scheduler.
func (s *Server) storeUsage() *campaign.StoreUsage {
	ds, ok := s.sched.Store().(*campaign.DirStore)
	if !ok {
		return nil
	}
	s.mu.Lock()
	if s.storeStats != nil && time.Since(s.storeStatsAt) < storeStatsTTL {
		cached := s.storeStats
		s.mu.Unlock()
		return cached
	}
	s.mu.Unlock()

	u, err := ds.Usage() // off the lock: this walks the store
	if err != nil {
		return nil
	}
	s.mu.Lock()
	s.storeStats, s.storeStatsAt = &u, time.Now()
	s.mu.Unlock()
	return &u
}

// handleBenchmarks lists the registered kernels.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type benchInfo struct {
		ID          int    `json:"id"`
		Name        string `json:"name"`
		Language    string `json:"language"`
		Collective  string `json:"collective"`
		MemoryBound bool   `json:"memory_bound"`
		Numerics    string `json:"numerics"`
	}
	var out []benchInfo
	for _, b := range bench.All() {
		out = append(out, benchInfo{
			ID: b.ID, Name: b.Name, Language: b.Language,
			Collective: b.Collective, MemoryBound: b.MemoryBound,
			Numerics: b.Numerics,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleClusters lists the registered clusters with the geometry a
// client needs to pick rank and clock points.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	type clusterInfo struct {
		Name           string    `json:"name"`
		CPU            string    `json:"cpu"`
		MaxNodes       int       `json:"max_nodes"`
		CoresPerNode   int       `json:"cores_per_node"`
		CoresPerDomain int       `json:"cores_per_domain"`
		BaseClockGHz   float64   `json:"base_clock_ghz"`
		DVFSLadderGHz  []float64 `json:"dvfs_ladder_ghz"`
	}
	var out []clusterInfo
	for _, name := range machine.Names() {
		cs, err := machine.Get(name)
		if err != nil {
			continue
		}
		info := clusterInfo{
			Name:           cs.Name,
			CPU:            cs.CPU.Name,
			MaxNodes:       cs.MaxNodes,
			CoresPerNode:   cs.CPU.CoresPerNode(),
			CoresPerDomain: cs.CPU.CoresPerDomain(),
			BaseClockGHz:   cs.CPU.BaseClockHz / 1e9,
		}
		for _, hz := range cs.CPU.DVFS.Ladder() {
			info.DVFSLadderGHz = append(info.DVFSLadderGHz, hz/1e9)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}
