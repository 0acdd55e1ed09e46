package campaign

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// Scheduler errors. ErrCancelled resolves jobs whose every interested
// submission released its ticket (or cancelled its submit context) while
// the job was still queued; ErrClosed resolves jobs dropped by Close and
// tickets returned by Submit after Close.
var (
	ErrCancelled = errors.New("campaign: job cancelled before it started")
	ErrClosed    = errors.New("campaign: scheduler closed")
)

// Predictor errors: a Predict call that cannot answer returns an error
// wrapping one of these, so the scheduler can count why a fast-mode
// submission fell back to the simulator. ErrNoModel means no model is
// fitted for the job's family (benchmark x cluster x class x options);
// ErrRefused means a model exists but declined — the query extrapolates
// outside the fitted hull or the model's self-reported error bound
// exceeds its tolerance.
var (
	ErrNoModel = errors.New("campaign: no surrogate model for job family")
	ErrRefused = errors.New("campaign: surrogate refused the query")
)

// Mode selects how a submission may be answered. Exact always resolves
// through the discrete-event engine (memo, store, or fresh simulation);
// Fast may be answered instantly by an attached analytic surrogate
// within its self-reported error bound, falling back to the exact path
// whenever the surrogate has no model, the query extrapolates outside
// the fitted hull, or the bound is too loose.
type Mode int

// Submission modes.
const (
	Exact Mode = iota
	Fast
)

// String renders the mode in the wire form the service accepts.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Fast:
		return "fast"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Predicted is a surrogate answer to one job: a synthesized result plus
// the model's self-reported relative error bound on its wall/energy/EDP
// predictions.
type Predicted struct {
	Result spec.RunResult
	// Bound is the relative error bound (0.02 = +-2%) the model claims
	// for the prediction; internal/surrogate/validate asserts it covers
	// held-out points.
	Bound float64
}

// Predictor is the analytic fast-path hook the scheduler consults before
// queueing a Fast-mode simulation (internal/surrogate implements it). A
// failed Predict must wrap ErrNoModel or ErrRefused; implementations
// must be safe for concurrent use.
type Predictor interface {
	Predict(rs spec.RunSpec) (Predicted, error)
}

// Observer is the feedback half of a predictor: the scheduler reports
// every exact result it resolves (fresh simulations and store hits
// alike), so fallback simulations continuously refine the model.
type Observer interface {
	Observe(res spec.RunResult)
}

// Runner executes one resolved job. The default runner is spec.Run —
// simulate in process — but a coordinator replaces it with a dispatcher
// that ships the job to a fleet worker over HTTP (internal/fleet), so
// the whole scheduler pipeline (priority queue, coalescing, memo, store
// write-through) is reused unchanged for distributed execution. A
// Runner must be safe for concurrent use: up to Workers() calls run at
// once.
type Runner func(rs spec.RunSpec) (spec.RunResult, error)

// JobState is the lifecycle position of a scheduled job.
type JobState int

// Job lifecycle: a submitted job waits in the priority queue (Queued),
// executes on a worker (Running), and resolves exactly once — Done with a
// result or error, or Cancelled without ever starting. Running jobs are
// never interrupted: a simulation, once started, always completes and
// memoizes.
const (
	Queued JobState = iota
	Running
	Done
	Cancelled
)

// String renders the state for status endpoints and logs.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// schedJob is the shared in-flight record of one unique job key: every
// submission of an identical spec — from any goroutine, batch, or HTTP
// request — attaches to the same schedJob, so the simulation runs once
// and its outcome fans out to all waiters. Fields before done are
// guarded by the scheduler mutex; res/err are written exactly once
// before done closes and read only after.
type schedJob struct {
	key string
	rs  spec.RunSpec
	// pri/seq order the queue: higher priority first, FIFO within a
	// priority level. index is the heap slot (-1 once dequeued).
	pri   int
	seq   uint64
	index int
	// refs counts submissions still interested in the outcome; a queued
	// job whose refs drop to zero is removed and resolved as Cancelled.
	refs  int
	state JobState

	// surrogate marks a job answered by the analytic fast path instead of
	// the engine; bound is the model's self-reported relative error bound.
	// Surrogate jobs resolve at submission and never enter the memo, so an
	// exact query for the same identity still simulates.
	surrogate bool
	bound     float64

	done chan struct{}
	res  spec.RunResult
	err  error
}

// jobQueue is the scheduler's priority queue: a max-heap on (pri, -seq),
// i.e. highest priority first and submission order within a priority.
type jobQueue []*schedJob

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].pri != q[j].pri {
		return q[i].pri > q[j].pri
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *jobQueue) Push(x any) {
	j := x.(*schedJob)
	j.index = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*q = old[:n-1]
	return j
}

// Scheduler is the long-lived campaign executor every caller shares:
// Submit enqueues one job and returns a Ticket immediately, and Run
// submits a batch and waits for it; a pool of at most Workers()
// on-demand worker goroutines drains the priority queue; identical jobs
// submitted by different callers coalesce onto one simulation;
// completed outcomes stay memoized for the scheduler's lifetime (and,
// with a Store attached, across processes). A Scheduler is safe for
// concurrent use from any number of goroutines.
type Scheduler struct {
	workers int
	store   Store

	// predictor/observer form the analytic fast path (SetPredictor):
	// consulted on Fast submissions, fed every exact result. Set before
	// serving traffic; read without further synchronization.
	predictor Predictor
	observer  Observer

	// runner resolves jobs that miss the memo and store (SetRunner); nil
	// means spec.Run. Set before serving traffic.
	runner Runner

	// simWorkers controls intra-job parallelism grants (SetSimWorkers):
	// 0 grants automatically when the campaign cannot keep the pool busy,
	// -1 never grants, n > 0 forces n workers onto every eligible job.
	simWorkers int

	mu      sync.Mutex
	cache   map[string]*schedJob // every key ever submitted (minus cancelled/evicted)
	queue   jobQueue
	seq     uint64
	spawned int // live worker goroutines
	active  int // jobs currently executing
	closed  bool
	stats   Stats
	// memoCap bounds the in-process memo when a persistent store backs
	// the scheduler (0 = unbounded): completed store-backed entries
	// beyond the cap are evicted oldest-first, in doneOrder, and served
	// from the store on resubmission. Keeps a long-lived daemon's memory
	// bounded however many unique jobs flow through it.
	memoCap   int
	doneOrder []string

	wg sync.WaitGroup // tracks worker goroutines for Close
}

// NewScheduler returns a scheduler running at most workers simulations
// at once (workers <= 0 selects the host core count) with an optional
// persistent store (nil = in-process memo only). Jobs missing from the
// memo are looked up in the store before simulating, and freshly
// simulated results are written through. Jobs that keep full event
// traces (RunSpec.KeepTrace) bypass the store — event timelines are not
// persisted — and failed jobs are never written, so transient faults
// cannot poison a shared cache. Workers are spawned on demand and exit
// when the queue drains, so an idle scheduler holds no goroutines.
func NewScheduler(workers int, store Store) *Scheduler {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	s := &Scheduler{
		workers: workers,
		store:   store,
		cache:   map[string]*schedJob{},
	}
	if store != nil {
		s.memoCap = defaultMemoCap
	}
	return s
}

// defaultMemoCap is the store-backed memo bound: large enough that any
// one study's working set stays fully in process, small enough that a
// daemon fed unique jobs forever does not grow without bound.
const defaultMemoCap = 4096

// noteDoneLocked records a completed entry as evictable (when the store
// can re-serve it) and enforces the memo bound. Callers hold s.mu.
func (s *Scheduler) noteDoneLocked(j *schedJob) {
	if s.memoCap <= 0 || s.store == nil || j.err != nil || j.rs.KeepTrace {
		return
	}
	s.doneOrder = append(s.doneOrder, j.key)
	for len(s.cache) > s.memoCap && len(s.doneOrder) > 0 {
		key := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if old, ok := s.cache[key]; ok && old.state == Done {
			delete(s.cache, key)
		}
	}
}

// SetPredictor attaches the analytic surrogate consulted on Fast-mode
// submissions. When p also implements Observer, every exact result the
// scheduler resolves is fed back so fallback simulations refine the
// model. Call once, before submitting work.
func (s *Scheduler) SetPredictor(p Predictor) {
	s.predictor = p
	if o, ok := p.(Observer); ok {
		s.observer = o
	}
}

// SetSimWorkers controls how the scheduler grants intra-job parallelism
// (spec.RunSpec.SimWorkers, the conservative-lookahead engine of
// internal/sim/psim). The default 0 grants the full worker budget to a
// multi-node job only when the campaign itself cannot use it — the
// queue is empty and nothing else is running — so job-level parallelism
// (many independent simulations) always wins when there is enough of
// it, and the partitioned engine soaks up the cores it leaves idle.
// -1 disables grants; n > 0 forces n workers onto every eligible job.
// Because partitioned results are byte-identical to serial ones (and
// job keys exclude SimWorkers), grants never split or poison the memo
// or the persistent store. Call before submitting work.
func (s *Scheduler) SetSimWorkers(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.simWorkers = n
}

// grantWorkersLocked decides the intra-job worker grant for a job about
// to execute. Callers hold s.mu; the caller is already counted in
// s.active, so the idle-pool condition is active == 1.
func (s *Scheduler) grantWorkersLocked() int {
	switch {
	case s.simWorkers < 0:
		return 0
	case s.simWorkers > 0:
		return s.simWorkers
	case len(s.queue) == 0 && s.active == 1:
		return s.workers
	default:
		return 0
	}
}

// withSimWorkers applies a worker grant to an eligible job spec: one
// that did not pin its own worker count, spans more than one node, and
// runs on a fabric with a positive latency floor (the conservative
// lookahead the partitioned engine requires). Ineligible specs pass
// through unchanged.
func withSimWorkers(rs spec.RunSpec, grant int) spec.RunSpec {
	if grant <= 1 || rs.SimWorkers != 0 || rs.Cluster == nil ||
		rs.Cluster.NodesFor(rs.Ranks) <= 1 {
		return rs
	}
	net := rs.Net
	if net.Name == "" {
		net = netsim.HDR100()
	}
	if _, err := net.LatencyFloor(); err != nil {
		return rs
	}
	rs.SimWorkers = grant
	return rs
}

// SetRunner replaces the scheduler's job executor (default spec.Run).
// Store lookups, memoization, coalescing, and surrogate handling are
// unaffected: only the "actually run this job" step is routed through r.
// Call once, before submitting work.
func (s *Scheduler) SetRunner(r Runner) { s.runner = r }

// Workers returns the worker-pool cap.
func (s *Scheduler) Workers() int { return s.workers }

// Closed reports whether Close has begun: new submissions are rejected
// with ErrClosed. The service's readiness probe reads this.
func (s *Scheduler) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Store returns the persistent store backing the scheduler (nil if none).
func (s *Scheduler) Store() Store { return s.store }

// Stats returns a snapshot of the cache/queue counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// QueueDepth returns the number of jobs waiting to start.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Active returns the number of simulations currently executing.
func (s *Scheduler) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Submit enqueues one job and returns its Ticket without blocking.
// Higher priorities run sooner; equal priorities run in submission
// order. A job whose canonical Key is already known — queued, running,
// or done — coalesces onto the existing entry instead of re-simulating,
// whoever submitted it first.
//
// The context governs the submission's interest, not the simulation:
// cancelling ctx while the job is still queued releases this
// submission's claim, and a queued job with no remaining claims is
// dropped from the queue and resolved as Cancelled. Once a job starts
// running it always completes (and memoizes), whatever its submitters'
// contexts do; ctx then only affects how long Wait blocks.
//
// Exact mode always resolves through the memo, the store, or a fresh
// simulation. Fast consults the attached predictor first: a usable
// model answers in microseconds with a ticket that is already Done
// (carrying the prediction and its error bound, see Ticket.Surrogate),
// while a missing model, an extrapolating query, or a too-loose bound
// falls back to the exact path — queueing a simulation whose result,
// once resolved, feeds back into the model. An exact result already
// memoized beats the surrogate: fast mode never degrades a free exact
// answer to an approximation.
func (s *Scheduler) Submit(ctx context.Context, rs spec.RunSpec, pri int, mode Mode) *Ticket {
	// KeepTrace jobs need the full event timeline, which no analytic
	// model can synthesize.
	if mode != Fast || s.predictor == nil || rs.KeepTrace {
		return s.enqueue(ctx, rs, pri)
	}
	key := Key(rs)
	s.mu.Lock()
	j, ok := s.cache[key]
	exact := ok && j.state == Done && j.err == nil
	closed := s.closed
	s.mu.Unlock()
	if exact || closed {
		return s.enqueue(ctx, rs, pri)
	}
	pred, err := s.predictor.Predict(rs)
	if err != nil {
		s.count(func(st *Stats) {
			if errors.Is(err, ErrNoModel) {
				st.SurrogateMisses++
			} else {
				st.SurrogateRefused++
			}
		})
		return s.enqueue(ctx, rs, pri)
	}
	s.count(func(st *Stats) { st.Jobs++; st.SurrogateHits++ })
	// The answered job never enters the memo: predictions are cheap to
	// recompute and must not shadow the exact identity.
	pj := &schedJob{key: key, rs: rs, index: -1, state: Done,
		surrogate: true, bound: pred.Bound,
		done: make(chan struct{}), res: pred.Result}
	close(pj.done)
	return &Ticket{s: s, j: pj, rs: rs}
}

// enqueue is Submit's exact path: coalesce onto a known key or queue a
// new job.
func (s *Scheduler) enqueue(ctx context.Context, rs spec.RunSpec, pri int) *Ticket {
	key := Key(rs)
	s.mu.Lock()
	s.stats.Jobs++
	if s.closed {
		s.mu.Unlock()
		j := &schedJob{key: key, rs: rs, index: -1, state: Cancelled,
			done: make(chan struct{}), err: ErrClosed}
		close(j.done)
		return &Ticket{s: s, j: j, rs: rs}
	}
	if j, ok := s.cache[key]; ok {
		s.stats.Hits++
		if j.state != Done {
			s.stats.Coalesced++
		}
		j.refs++
		// A hotter submission drags a queued job forward in the queue.
		if j.state == Queued && pri > j.pri {
			j.pri = pri
			heap.Fix(&s.queue, j.index)
		}
		s.mu.Unlock()
		t := &Ticket{s: s, j: j, rs: rs}
		t.watch(ctx)
		return t
	}
	j := &schedJob{
		key:  key,
		rs:   rs,
		pri:  pri,
		seq:  s.seq,
		refs: 1,
		done: make(chan struct{}),
	}
	s.seq++
	s.cache[key] = j
	heap.Push(&s.queue, j)
	s.ensureWorkerLocked()
	s.mu.Unlock()
	t := &Ticket{s: s, j: j, rs: rs}
	t.watch(ctx)
	return t
}

// Run executes a batch and returns one Outcome per job, in input order:
// every job is submitted at default priority under mode, then each
// ticket is awaited in turn. Jobs already memoized (or duplicated within
// the batch) are served from the in-process memo, then from the
// persistent store if one is attached; the rest run on the worker pool.
// At most Workers() worker goroutines exist no matter the batch size, so
// 10k-job scenario batches do not create 10k parked goroutines.
//
// Cancelling ctx releases the batch's claim on queued jobs and unblocks
// the waits (outcomes carry ctx's error), so an abandoned study stops
// resubmitting its own jobs; running simulations still complete.
func (s *Scheduler) Run(ctx context.Context, jobs []spec.RunSpec, mode Mode) []Outcome {
	tickets := make([]*Ticket, len(jobs))
	for i, rs := range jobs {
		tickets[i] = s.Submit(ctx, rs, 0, mode)
	}
	out := make([]Outcome, len(jobs))
	for i, t := range tickets {
		out[i] = t.Wait(ctx)
	}
	return out
}

// ensureWorkerLocked spawns a worker goroutine if the queue has waiting
// jobs and the pool is below its cap. Callers hold s.mu.
func (s *Scheduler) ensureWorkerLocked() {
	if s.spawned >= s.workers || len(s.queue) == 0 {
		return
	}
	s.spawned++
	s.wg.Add(1)
	go s.worker()
}

// worker drains the queue until it is empty, then exits: the pool grows
// on demand under load and holds zero goroutines when idle.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.spawned--
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*schedJob)
		j.state = Running
		s.active++
		// Decide the intra-job parallelism grant while the queue state is
		// still visible; the granted spec shares the job's key (SimWorkers
		// is execution strategy, not identity).
		rs := withSimWorkers(j.rs, s.grantWorkersLocked())
		s.mu.Unlock()

		res, err := s.execute(j.key, rs)

		s.mu.Lock()
		s.active--
		j.resolveLocked(Done, res, err)
		s.noteDoneLocked(j)
		s.mu.Unlock()
	}
}

// execute resolves one unique job: persistent-store lookup first (when
// attached and the job is storable), then a fresh simulation with
// write-through. A fresh run on the partitioned engine adds its window
// accounting to Stats.Psim.
func (s *Scheduler) execute(key string, rs spec.RunSpec) (spec.RunResult, error) {
	storable := s.store != nil && !rs.KeepTrace
	if storable {
		rec, ok, err := s.store.Get(key)
		if err != nil {
			s.count(func(st *Stats) { st.StoreFaults++ })
		} else if ok {
			if res, valid := rec.result(); valid {
				s.count(func(st *Stats) { st.StoreHits++ })
				s.observe(res)
				return res, nil
			}
		}
	}
	s.count(func(st *Stats) { st.Misses++ })
	run := s.runner
	if run == nil {
		run = spec.Run
	}
	res, err := run(rs)
	if storable && err == nil {
		if perr := s.store.Put(key, NewRecord(key, res)); perr != nil {
			s.count(func(st *Stats) { st.StoreFaults++ })
		}
	}
	if err == nil {
		if res.Psim.Windows > 0 {
			s.count(func(st *Stats) { st.Psim.Add(res.Psim) })
		}
		s.observe(res)
	}
	return res, err
}

// observe feeds one exact result back into the attached surrogate, so
// every fallback simulation a fast query triggers tightens the model
// that could not answer it.
func (s *Scheduler) observe(res spec.RunResult) {
	if s.observer != nil {
		s.observer.Observe(res)
	}
}

// count applies a stats mutation under the scheduler lock.
func (s *Scheduler) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Close shuts the scheduler down: new submissions are rejected with
// ErrClosed, every queued-but-unstarted job is dropped (its waiters
// unblock with ErrClosed), and Close blocks until the simulations
// already running have completed and memoized. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for len(s.queue) > 0 {
			j := heap.Pop(&s.queue).(*schedJob)
			s.resolveDroppedLocked(j, ErrClosed)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// resolveDroppedLocked finishes a queued job that will never run:
// removed from the memo (so a later resubmission re-simulates), marked
// Cancelled, and its done channel closed to release every waiter.
// Callers hold s.mu and must have already removed j from the queue.
func (s *Scheduler) resolveDroppedLocked(j *schedJob, err error) {
	delete(s.cache, j.key)
	s.stats.Cancelled++
	j.resolveLocked(Cancelled, spec.RunResult{}, err)
}

// resolveLocked publishes a job's final state together with its outcome:
// state, result and error are set and done is closed in one critical
// section, so a poller that reads the final state under the lock always
// finds Outcome ready. Every resolve of a queued job goes through here;
// coalesced tickets share the job and see the same publish. Callers
// hold the scheduler's lock.
func (j *schedJob) resolveLocked(state JobState, res spec.RunResult, err error) {
	j.res, j.err, j.state = res, err, state
	close(j.done)
}

// Ticket is one submission's handle on a scheduled job. Multiple tickets
// may share one underlying job (coalesced submissions); each carries the
// spec exactly as its own caller submitted it.
type Ticket struct {
	s  *Scheduler
	j  *schedJob
	rs spec.RunSpec

	releaseOnce sync.Once
}

// Key returns the job's canonical content-addressed identity.
func (t *Ticket) Key() string { return t.j.key }

// Job returns the spec as this submission provided it.
func (t *Ticket) Job() spec.RunSpec { return t.rs }

// Surrogate reports whether this ticket was answered by the analytic
// surrogate instead of a simulation, and if so the model's self-reported
// relative error bound on the prediction.
func (t *Ticket) Surrogate() (bound float64, ok bool) {
	return t.j.bound, t.j.surrogate
}

// State returns the job's current lifecycle position.
func (t *Ticket) State() JobState {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.j.state
}

// Done returns a channel closed when the job resolves (Done or
// Cancelled) — select-friendly for callers multiplexing many tickets.
func (t *Ticket) Done() <-chan struct{} { return t.j.done }

// Outcome returns the job's outcome and true once it has resolved; a
// non-blocking poll for status endpoints.
func (t *Ticket) Outcome() (Outcome, bool) {
	select {
	case <-t.j.done:
		return Outcome{Job: t.rs, Result: t.j.res, Err: t.j.err}, true
	default:
		return Outcome{Job: t.rs}, false
	}
}

// Wait blocks until the job resolves or ctx is cancelled and returns the
// outcome. A ctx cancellation abandons this submission's interest — a
// queued job with no other interested submissions is dropped — and
// surfaces ctx's error as the outcome's Err, even when the submit
// context's watcher dropped the job first.
func (t *Ticket) Wait(ctx context.Context) Outcome {
	select {
	case <-t.j.done:
	case <-ctx.Done():
		t.Cancel()
	}
	// The job may have resolved while we raced its cancellation; prefer
	// the real outcome when it exists.
	select {
	case <-t.j.done:
		if t.j.state != Cancelled || ctx.Err() == nil {
			return Outcome{Job: t.rs, Result: t.j.res, Err: t.j.err}
		}
	default:
	}
	return Outcome{Job: t.rs, Err: ctx.Err()}
}

// Cancel releases this submission's interest in the job. When the last
// interested submission of a still-queued job cancels, the job is
// removed from the queue and resolved as Cancelled (ErrCancelled);
// running or completed jobs are unaffected. Cancel is idempotent and
// never blocks on the simulation.
func (t *Ticket) Cancel() {
	t.releaseOnce.Do(func() {
		s := t.s
		s.mu.Lock()
		defer s.mu.Unlock()
		j := t.j
		if j.state == Done || j.state == Cancelled {
			return
		}
		j.refs--
		if j.refs > 0 || j.state != Queued {
			return
		}
		heap.Remove(&s.queue, j.index)
		s.resolveDroppedLocked(j, ErrCancelled)
	})
}

// watch releases the ticket when its submit context is cancelled before
// the job resolves. Background contexts (Done() == nil) — most batch
// runs' case — spawn nothing.
func (t *Ticket) watch(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			t.Cancel()
		case <-t.j.done:
		}
	}()
}
