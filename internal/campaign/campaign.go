// Package campaign is the job-oriented experiment engine behind every
// sweep in this repository. The paper's evaluation is built from large
// campaigns — 9 kernels x 2 clusters x dozens of rank counts per figure —
// and each simulated MPI job is an independent single-threaded
// discrete-event run, so campaigns are embarrassingly parallel across
// host cores.
//
// One long-lived Scheduler runs every job: each is submitted with a
// context, a priority and a query mode, deduplicated under a canonical
// content-addressed job Key, coalesced across requests (identical jobs
// in flight from different callers share one simulation), executed on a
// bounded on-demand worker pool fed by a priority queue, and memoized
// for the scheduler's lifetime. Queued jobs whose submitters all cancel
// are dropped without running; running simulations always complete.
//
// Submit returns a Ticket at once, for callers (the scenario planner,
// the HTTP service) that want results to stream in as they land. Run
// submits a whole batch, waits for every ticket, and returns outcomes in
// deterministic input order with per-job errors — one failing job never
// aborts its siblings. A sweep is just a batch: spec.RunSpec's AtRanks
// and AtClocks build it, and Results unwraps it.
//
// Backed by a persistent Store (NewScheduler's second argument, or
// NewWithCacheDir), the memo additionally survives the process: results
// are looked up in — and written through to — an on-disk
// content-addressed cache, so re-running the same scenarios in a fresh
// process serves them without re-simulating.
package campaign

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// Outcome is the result of one job of a campaign.
type Outcome struct {
	// Job is the spec as submitted.
	Job spec.RunSpec
	// Result is valid iff Err is nil.
	Result spec.RunResult
	// Err is this job's failure (errors are memoized like results).
	Err error
}

// Stats counts the scheduler's cache behaviour. A "miss" is a fresh
// simulation; a "hit" is a job served from the in-process memo, whether
// it completed earlier or is still in flight. Coalesced counts the hits
// that attached to a job not yet finished — concurrent submissions of
// one identity sharing a single simulation. StoreHits count jobs served
// from the persistent store instead of simulating; StoreFaults count
// store read/write errors (each such job falls back to a fresh
// simulation, so faults never lose results). Cancelled counts queued
// jobs dropped before starting (submitters all cancelled, or scheduler
// shutdown). The Surrogate* counters cover Fast-mode submissions (see
// Submit): SurrogateHits are queries answered analytically without
// simulating, SurrogateMisses fell back because no fitted model covered
// the job's family, and SurrogateRefused fell back because the model
// declined the query (extrapolation outside the fitted hull, or an
// error bound too loose to trust). Psim sums the window accounting of
// the fresh simulations this scheduler ran on the partitioned engine.
// The JSON names are the service's /statsz campaign block; Psim is its
// own top-level /statsz block.
type Stats struct {
	Jobs             int         `json:"jobs"`
	Hits             int         `json:"memo_hits"`
	Coalesced        int         `json:"coalesced"`
	StoreHits        int         `json:"store_hits"`
	Misses           int         `json:"fresh_sims"`
	StoreFaults      int         `json:"store_faults"`
	Cancelled        int         `json:"cancelled"`
	SurrogateHits    int         `json:"surrogate_hits"`
	SurrogateMisses  int         `json:"surrogate_misses"`
	SurrogateRefused int         `json:"surrogate_refused"`
	Psim             psim.Totals `json:"-"`
}

// String renders the counters in the stable one-line form the CLIs print
// to stderr when a persistent store is attached. The field names are
// load-bearing: scripts/warm_cache_check.sh and scripts/service_smoke.sh
// parse them to assert a warm store serves a repeated run with
// fresh-sims=0.
func (s Stats) String() string {
	line := fmt.Sprintf("campaign: jobs=%d memo-hits=%d coalesced=%d store-hits=%d fresh-sims=%d store-faults=%d cancelled=%d",
		s.Jobs, s.Hits, s.Coalesced, s.StoreHits, s.Misses, s.StoreFaults, s.Cancelled)
	if s.SurrogateHits > 0 || s.SurrogateMisses > 0 || s.SurrogateRefused > 0 {
		line += fmt.Sprintf(" surrogate-hits=%d surrogate-misses=%d surrogate-refused=%d",
			s.SurrogateHits, s.SurrogateMisses, s.SurrogateRefused)
	}
	return line
}

// NewWithCacheDir returns a scheduler backed by an on-disk store rooted
// at cacheDir, or a store-less scheduler when cacheDir is empty — the
// one-stop constructor behind both CLIs' -cache-dir flag.
func NewWithCacheDir(workers int, cacheDir string) (*Scheduler, error) {
	if cacheDir == "" {
		return NewScheduler(workers, nil), nil
	}
	st, err := NewDirStore(cacheDir)
	if err != nil {
		return nil, err
	}
	return NewScheduler(workers, st), nil
}

// Results unwraps a batch's outcomes into results in input order, the
// last step of a sweep: Results(s.Run(ctx, base.AtRanks(points), Exact)).
// The first failed job aborts the slice, and its error names that job
// (the remaining jobs still completed and stay memoized).
func Results(outs []Outcome) ([]spec.RunResult, error) {
	results := make([]spec.RunResult, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", jobDesc(o.Job), o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
}
