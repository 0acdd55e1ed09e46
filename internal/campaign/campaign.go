// Package campaign is the job-oriented experiment engine behind every
// sweep in this repository. The paper's evaluation is built from large
// campaigns — 9 kernels x 2 clusters x dozens of rank counts per figure —
// and each simulated MPI job is an independent single-threaded
// discrete-event run, so campaigns are embarrassingly parallel across
// host cores.
//
// The core is a long-lived asynchronous Scheduler: jobs are submitted
// with a context and a priority, deduplicated under a canonical
// content-addressed job Key, coalesced across requests (identical jobs
// in flight from different callers share one simulation), executed on a
// bounded on-demand worker pool fed by a priority queue, and memoized
// for the scheduler's lifetime. Queued jobs whose submitters all cancel
// are dropped without running; running simulations always complete.
//
// The synchronous Engine (Run, RunCtx) is a thin batch adapter over the
// scheduler for CLIs, figures, and tests: it submits a batch, waits for
// every ticket, and returns outcomes in deterministic input order with
// per-job errors — one failing job never aborts its siblings. A sweep is
// just a batch: spec.RunSpec's AtRanks and AtClocks build it, and
// Results unwraps it.
//
// Backed by a persistent Store (see NewWithStore), the memo additionally
// survives the process: results are looked up in — and written through to
// — an on-disk content-addressed cache, so re-running the same scenarios
// in a fresh process serves them without re-simulating.
package campaign

import (
	"context"
	"fmt"

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
// SubmitMode): SurrogateHits are queries answered analytically without
// simulating, SurrogateMisses fell back because no fitted model covered
// the job's family, and SurrogateRefused fell back because the model
// declined the query (extrapolation outside the fitted hull, or an
// error bound too loose to trust).
type Stats struct {
	Jobs             int
	Hits             int
	Coalesced        int
	Misses           int
	StoreHits        int
	StoreFaults      int
	Cancelled        int
	SurrogateHits    int
	SurrogateMisses  int
	SurrogateRefused int
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

// Engine is the synchronous batch view of a Scheduler. The zero value is
// not usable; construct with New, NewWithStore, or NewWithScheduler. An
// Engine is safe for concurrent use; concurrent Run calls share the
// scheduler's worker pool, memo, and coalescing.
type Engine struct {
	sched *Scheduler
	mode  Mode
}

// New returns an engine running at most workers simulations at once.
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Engine {
	return NewWithStore(workers, nil)
}

// NewWithStore returns an engine whose in-process memo is backed by a
// persistent store: jobs missing from the memo are looked up in the store
// before simulating, and freshly simulated results are written through.
// Jobs that keep full event traces (RunSpec.KeepTrace) bypass the store —
// event timelines are not persisted — and failed jobs are never written,
// so transient faults cannot poison a shared cache. A nil store behaves
// exactly like New.
func NewWithStore(workers int, store Store) *Engine {
	return NewWithScheduler(NewScheduler(workers, store))
}

// NewWithScheduler wraps an existing scheduler in the synchronous batch
// API, so long-lived services can share one scheduler between HTTP
// submissions and planner-driven batches.
func NewWithScheduler(s *Scheduler) *Engine {
	return &Engine{sched: s}
}

// NewWithCacheDir returns an engine backed by an on-disk store rooted at
// cacheDir, or a store-less engine when cacheDir is empty — the one-stop
// constructor behind both CLIs' -cache-dir flag.
func NewWithCacheDir(workers int, cacheDir string) (*Engine, error) {
	if cacheDir == "" {
		return New(workers), nil
	}
	st, err := NewDirStore(cacheDir)
	if err != nil {
		return nil, err
	}
	return NewWithStore(workers, st), nil
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.sched.Workers() }

// Store returns the persistent store backing the engine (nil if none).
func (e *Engine) Store() Store { return e.sched.Store() }

// Scheduler returns the asynchronous scheduler behind the engine.
func (e *Engine) Scheduler() *Scheduler { return e.sched }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats { return e.sched.Stats() }

// Mode returns the query mode every submission through this engine view
// uses (Exact unless derived with WithMode).
func (e *Engine) Mode() Mode { return e.mode }

// WithMode returns a derived view of the same engine — same scheduler,
// memo, store, and counters — whose submissions carry the given query
// mode. A Fast view lets whole scenario renders ride the surrogate,
// while the original Exact view is untouched; because surrogate answers
// are never memoized, the two views cannot contaminate each other.
func (e *Engine) WithMode(mode Mode) *Engine {
	if mode == e.mode {
		return e
	}
	return &Engine{sched: e.sched, mode: mode}
}

// Submit enqueues one job on the underlying scheduler without blocking —
// the asynchronous escape hatch for callers (the scenario planner, the
// HTTP service) that want results to stream in as they land. The
// engine's mode applies (see WithMode).
func (e *Engine) Submit(ctx context.Context, rs spec.RunSpec) *Ticket {
	return e.sched.SubmitMode(ctx, rs, 0, e.mode)
}

// Run executes a campaign and returns one Outcome per job, in input
// order. Jobs already memoized (or duplicated within the batch) are
// served from the in-process memo, then from the persistent store if one
// is attached; the rest run on the scheduler's worker pool. At most
// Workers() worker goroutines exist no matter the batch size, so 10k-job
// scenario batches do not create 10k parked goroutines.
func (e *Engine) Run(jobs []spec.RunSpec) []Outcome {
	return e.RunCtx(context.Background(), jobs)
}

// RunCtx is Run under a cancellable context: the batch is submitted and
// awaited with ctx, so cancelling it releases the batch's claim on
// queued jobs and unblocks the waits (outcomes carry the context
// error). A cancelled ctx can never pin work alive — the path renderers
// use so an abandoned study stops resubmitting its own jobs.
func (e *Engine) RunCtx(ctx context.Context, jobs []spec.RunSpec) []Outcome {
	tickets := make([]*Ticket, len(jobs))
	for i, rs := range jobs {
		tickets[i] = e.Submit(ctx, rs)
	}
	out := make([]Outcome, len(jobs))
	for i, t := range tickets {
		out[i] = t.Wait(ctx)
	}
	return out
}

// Results unwraps a batch's outcomes into results in input order, the
// last step of a sweep: Results(engine.Run(base.AtRanks(points))). The
// first failed job aborts the slice, and its error names that job (the
// remaining jobs still completed and stay memoized).
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
