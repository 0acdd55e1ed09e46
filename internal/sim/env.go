package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
)

// ProcState describes what a process is currently doing. It is exported so
// that diagnostic output (e.g. deadlock reports) can name the state.
type ProcState int

// Process states.
const (
	// StateNew means the process was spawned but has not run yet.
	StateNew ProcState = iota
	// StateRunning means the process is the one currently executing.
	StateRunning
	// StateWaiting means the process sleeps until a scheduled resume event.
	StateWaiting
	// StateParked means the process blocks until another party wakes it.
	StateParked
	// StateDone means the process function returned.
	StateDone
)

// String returns a human-readable state name.
func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunning:
		return "running"
	case StateWaiting:
		return "waiting"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Env is a discrete-event simulation environment: a virtual clock, an event
// queue, and a set of processes. An Env must be created with NewEnv (or
// taken from the pool with AcquireEnv). It is not safe for concurrent use
// from multiple OS threads; all interaction happens either from the
// goroutine that calls Run or from within process functions (which the
// scheduler serializes).
type Env struct {
	now float64
	seq uint64

	// slots is the event slab; freeSlots recycles indices of released
	// events so steady-state scheduling allocates nothing.
	slots     []eventSlot
	freeSlots []int32
	// heap holds future events ordered by (time, seq), keys inline.
	heap []heapEntry
	// nowq is a FIFO of slot indices for events scheduled at the current
	// timestamp (wakes, zero-length waits): they are already in (time,
	// seq) order by construction, so they bypass the heap entirely.
	nowq    []int32
	nowHead int

	procs    []*Proc
	procFree []*Proc
	current  *Proc
	failure  error
	stopped  bool

	// coros lists every process coroutine this environment created; the
	// cleanup registered by NewEnv stops them once the environment is
	// unreachable.
	coros *coroSet

	// flowChunk bump-allocates Flow structs for this run's resources;
	// the chunks are dropped at reset, so flows never alias across runs.
	flowChunk []Flow

	// oracle, when set, tightens EarliestOutput: a model-level promise
	// about when this environment can next affect another one. Nil for
	// serial runs and partitions without a registered oracle.
	oracle OutputOracle

	counters Counters
}

// Counters are deterministic work counts of a run. They depend only on
// the simulated history, never on wall-clock timing, so tests and
// benchmarks can pin the structure of the engine's work on any hardware.
type Counters struct {
	// Events counts events scheduled.
	Events int64
	// Retimes counts moves of a processor-sharing resource's completion
	// event: one per flow start or completion that leaves flows active.
	Retimes int64
	// Switches counts hand-offs of control from the scheduler to a
	// process.
	Switches int64
}

// Add returns the element-wise sum of c and o.
func (c Counters) Add(o Counters) Counters {
	return Counters{Events: c.Events + o.Events, Retimes: c.Retimes + o.Retimes,
		Switches: c.Switches + o.Switches}
}

// Counters returns the work counts since the environment was created or
// last recycled through the pool.
func (e *Env) Counters() Counters { return e.counters }

// OutputOracle is a conservative promise about an environment's next
// externally visible action. EarliestOutputTime returns a lower bound
// on the virtual time at which the environment can next produce output
// for another partition (post cross-partition mail). The bound must be
// sound under any future schedule: returning -Inf (no promise) is
// always safe, returning +Inf promises the partition will never send
// again. The parallel engine reads it only at window barriers, so the
// implementation may consult state mutated freely inside windows.
type OutputOracle interface {
	EarliestOutputTime() float64
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{coros: &coroSet{}}
	// Finished processes keep their idle coroutines for reuse. Once the
	// environment is garbage (dropped by envPool, or never pooled), stop
	// them so their goroutines exit.
	runtime.AddCleanup(e, (*coroSet).stop, e.coros)
	return e
}

// envPool recycles environments — and with them event slabs, process
// structs, and their coroutines — across simulation runs. Campaign
// workers each acquire their own Env, so pooled reuse is race-free by
// construction and is exercised under -race by the campaign tests.
var envPool = sync.Pool{New: func() any { return NewEnv() }}

// AcquireEnv returns a reset environment from the pool. Release it with
// ReleaseEnv after Run completes to recycle its buffers.
func AcquireEnv() *Env {
	return envPool.Get().(*Env)
}

// ReleaseEnv resets e and returns it to the pool. Environments that did
// not finish cleanly (failed runs, undrained queues, processes still
// blocked) are abandoned to the garbage collector instead: their parked
// coroutines may still hold references to internal state.
func ReleaseEnv(e *Env) {
	if e == nil || !e.clean() {
		return
	}
	e.reset()
	envPool.Put(e)
}

// clean reports whether the environment finished a run with no failure,
// an empty queue, and every process completed.
func (e *Env) clean() bool {
	if e.failure != nil || e.current != nil {
		return false
	}
	if len(e.heap) > 0 || e.nowHead < len(e.nowq) {
		return false
	}
	for _, p := range e.procs {
		if p.state != StateDone {
			return false
		}
	}
	return true
}

// reset rewinds the environment to the zero-time state while keeping all
// allocated capacity: the event slab, the free list, and finished process
// structs (whose coroutines are reused by future Spawns).
func (e *Env) reset() {
	e.now, e.seq = 0, 0
	e.failure = nil
	e.stopped = false
	for _, p := range e.procs {
		p.fn = nil
		p.state = StateNew
		p.wakeTokens = 0
		p.pending = Event{}
		p.parkReason = ""
		p.name = ""
		e.procFree = append(e.procFree, p)
	}
	e.procs = e.procs[:0]
	e.nowq, e.nowHead = e.nowq[:0], 0
	e.flowChunk = nil
	e.oracle = nil
	e.counters = Counters{}
}

// SetOutputOracle registers (or clears, with nil) the environment's
// output oracle. The caller keeps ownership of the oracle; reset drops
// the reference.
func (e *Env) SetOutputOracle(o OutputOracle) { e.oracle = o }

// BumpAlloc hands out one zeroed *T from the chunk, growing by whole
// chunks of n, so allocation cost is paid once per n objects. Handed-out
// objects stay live until the chunk is dropped; use it for run-scoped
// objects (flows, MPI protocol state) that die with their run.
func BumpAlloc[T any](chunk *[]T, n int) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, n)
	}
	p := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return p
}

// allocFlow hands out one zeroed Flow from the environment's bump arena.
func (e *Env) allocFlow() *Flow {
	return BumpAlloc(&e.flowChunk, 256)
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// checkTime panics on times that always indicate a modeling bug.
func (e *Env) checkTime(t float64) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < now %v", t, e.now))
	}
}

// allocSlot takes a slot from the free list (or grows the slab), stamps
// it with the next sequence number, and enqueues it: events at the
// current timestamp go to the FIFO now-queue, future events to the heap.
func (e *Env) allocSlot(t float64) int32 {
	e.checkTime(t)
	e.seq++
	e.counters.Events++
	var idx int32
	if n := len(e.freeSlots) - 1; n >= 0 {
		idx = e.freeSlots[n]
		e.freeSlots = e.freeSlots[:n]
	} else {
		e.slots = append(e.slots, eventSlot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	if s.gen&1 == 1 {
		s.gen++ // slot was last cancelled; restore the even live parity
	}
	s.time, s.seq = t, e.seq
	if t == e.now {
		s.pos = posNow
		e.nowq = append(e.nowq, idx)
	} else {
		e.heapPush(idx)
	}
	return idx
}

// releaseSlot clears a detached slot's references and recycles its index.
func (e *Env) releaseSlot(idx int32) {
	s := &e.slots[idx]
	s.fn, s.proc, s.proc2, s.res = nil, nil, nil, nil
	s.fnArg, s.arg = nil, nil
	s.dead = false
	s.pos = posDetached
	e.freeSlots = append(e.freeSlots, idx)
}

// schedule inserts a callback event at absolute time t.
func (e *Env) schedule(t float64, fn func()) Event {
	idx := e.allocSlot(t)
	s := &e.slots[idx]
	s.kind, s.fn = evFn, fn
	return Event{env: e, idx: idx, gen: s.gen}
}

// scheduleArg inserts a static-callback event at absolute time t. The
// callback function value must not capture state — everything it needs
// travels in arg — so the hot path allocates no closure.
func (e *Env) scheduleArg(t float64, fn func(any), arg any) Event {
	idx := e.allocSlot(t)
	s := &e.slots[idx]
	s.kind, s.fnArg, s.arg = evFnArg, fn, arg
	return Event{env: e, idx: idx, gen: s.gen}
}

// scheduleProc inserts a typed process event (start, resume, wake) at
// absolute time t without allocating a closure.
func (e *Env) scheduleProc(t float64, kind evKind, p *Proc) Event {
	idx := e.allocSlot(t)
	s := &e.slots[idx]
	s.kind, s.proc = kind, p
	return Event{env: e, idx: idx, gen: s.gen}
}

// scheduleFlow inserts a PSResource's head-flow completion event at
// absolute time t.
func (e *Env) scheduleFlow(t float64, r *PSResource) Event {
	idx := e.allocSlot(t)
	s := &e.slots[idx]
	s.kind, s.res = evFlow, r
	return Event{env: e, idx: idx, gen: s.gen}
}

// retimeFlow moves a PSResource's completion event to a new time, reusing
// the queued slot when possible. It consumes exactly one sequence number,
// like a fresh schedule.
func (e *Env) retimeFlow(ev Event, t float64, r *PSResource) Event {
	e.counters.Retimes++
	if ev.valid() {
		s := &e.slots[ev.idx]
		if s.pos >= 0 {
			e.checkTime(t)
			e.seq++
			s.time, s.seq = t, e.seq
			ent := &e.heap[s.pos]
			ent.time, ent.seq = t, e.seq
			e.heapFix(s.pos)
			return ev
		}
		// Rare: the event sits in the now-queue (the head was due at the
		// current instant and the flow set changed). FIFO entries cannot
		// move; cancel in place and start fresh.
		ev.Cancel()
	}
	return e.scheduleFlow(t, r)
}

// At schedules fn to run at absolute virtual time t. The callback runs on
// the scheduler and must not block in virtual time; use Spawn for blocking
// logic.
func (e *Env) At(t float64, fn func()) Event { return e.schedule(t, fn) }

// After schedules fn to run d seconds after the current time.
func (e *Env) After(d float64, fn func()) Event { return e.schedule(e.now+d, fn) }

// AtArg schedules fn(arg) to run at absolute virtual time t. Unlike At,
// the callback carries its state in arg, so callers passing a top-level
// function allocate nothing — the closure-free variant for hot paths
// (MPI protocol events fire once per message).
func (e *Env) AtArg(t float64, fn func(any), arg any) Event { return e.scheduleArg(t, fn, arg) }

// AfterArg schedules fn(arg) to run d seconds after the current time; see
// AtArg for the allocation contract.
func (e *Env) AfterArg(d float64, fn func(any), arg any) Event {
	return e.scheduleArg(e.now+d, fn, arg)
}

// Proc is a simulation process: a coroutine whose execution is
// interleaved with other processes in virtual time. Process methods that
// block (Wait, Park, resource acquisition) must only be called from within
// the process's own function.
type Proc struct {
	env        *Env
	id         int
	name       string
	state      ProcState
	co         *coro
	wakeTokens int
	pending    Event // scheduled resume while in StateWaiting
	parkReason string
	fn         func(*Proc)
}

// coro is a process's execution context: an iter.Pull coroutine that runs
// one process function after another. Handing control to a process is a
// direct coroutine switch (next), and a process hands it back by calling
// the coroutine's yield, so a park/resume round trip involves neither
// channels nor the Go scheduler. A finished process stays paired with its
// idle coroutine, so Spawn on a pooled environment starts no goroutine.
//
// The coroutine references its process only while running one (p is nil
// when idle): an environment whose processes have all finished is
// unreachable from the coroutine stacks, so its cleanup can stop them.
type coro struct {
	p     *Proc
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine body: run the assigned process to completion,
// hand control back, wait for the next assignment. It returns when the
// coroutine is stopped.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.runProc()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProc executes the assigned process function. A panic becomes the
// environment's failure; either way the process ends in StateDone and
// the coroutine goes idle.
func (c *coro) runProc() {
	p := c.p
	e := p.env
	defer func() {
		if r := recover(); r != nil {
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
		}
		p.state = StateDone
		c.p = nil
	}()
	p.fn(p)
}

// coroSet is the list of an environment's coroutines, kept apart from
// the Env so that the cleanup stopping them does not keep it reachable.
type coroSet struct{ list []*coro }

// stop ends every coroutine in the set. It runs only once the owning
// environment is unreachable, when every coroutine is idle.
func (s *coroSet) stop() {
	for _, c := range s.list {
		c.stop()
	}
}

// Spawn creates a process named name executing fn and schedules it to start
// at the current virtual time. It returns immediately; fn runs once the
// scheduler reaches the start event during Run. Finished process structs
// from a previous run of a pooled environment are reused, coroutine
// included.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree) - 1; n >= 0 {
		p = e.procFree[n]
		e.procFree = e.procFree[:n]
	} else {
		p = &Proc{env: e, co: newCoro()}
		e.coros.list = append(e.coros.list, p.co)
	}
	p.id = len(e.procs)
	p.name = name
	p.state = StateNew
	p.fn = fn
	e.procs = append(e.procs, p)
	e.scheduleProc(e.now, evStart, p)
	return p
}

// startProc assigns p to its coroutine and hands control to it.
func (e *Env) startProc(p *Proc) {
	p.co.p = p
	e.transferTo(p)
}

// transferTo hands control to p and returns once p yields (parks, waits,
// or finishes).
func (e *Env) transferTo(p *Proc) {
	prev := e.current
	e.current = p
	p.state = StateRunning
	e.counters.Switches++
	p.co.next()
	e.current = prev
}

// yield returns control from the running process to the scheduler and
// returns once the scheduler resumes this process.
func (p *Proc) yield() {
	if !p.co.yield(struct{}{}) {
		// Coroutines are stopped only when their environment is garbage,
		// which a parked process's own stack rules out.
		panic(fmt.Sprintf("sim: process %q stopped while blocked", p.name))
	}
}

// mustBeCurrent panics unless p is the currently executing process; all
// blocking primitives require this.
func (p *Proc) mustBeCurrent(op string) {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: %s called on process %q which is not running (state %v)", op, p.name, p.state))
	}
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn index, unique within its Env.
func (p *Proc) ID() int { return p.id }

// State returns the current scheduling state of the process.
func (p *Proc) State() ProcState { return p.state }

// Now returns the current virtual time; shorthand for p.Env().Now().
func (p *Proc) Now() float64 { return p.env.now }

// Wait suspends the process for d seconds of virtual time. A negative d is
// treated as zero (the process yields and resumes at the same timestamp,
// after already-scheduled events at that timestamp).
func (p *Proc) Wait(d float64) {
	if d < 0 {
		d = 0
	}
	p.WaitUntil(p.env.now + d)
}

// WaitUntil suspends the process until absolute virtual time t.
func (p *Proc) WaitUntil(t float64) {
	p.mustBeCurrent("WaitUntil")
	e := p.env
	if t < e.now {
		t = e.now
	}
	p.state = StateWaiting
	p.pending = e.scheduleProc(t, evResume, p)
	p.yield()
}

// Park blocks the process until another party calls Wake or WakeAt for it.
// If a wake token is already available (Wake happened first), Park consumes
// it and returns immediately. The reason string appears in deadlock
// reports; hot paths should pass a precomputed or constant string.
func (p *Proc) Park(reason string) {
	p.mustBeCurrent("Park")
	if p.wakeTokens > 0 {
		p.wakeTokens--
		return
	}
	p.state = StateParked
	p.parkReason = reason
	p.yield()
	p.parkReason = ""
}

// Wake makes a parked process runnable at the current virtual time. If the
// process is not parked (yet, or anymore — something else may have woken it
// between scheduling and firing), the wake is remembered as a token that
// the next Park consumes; Park users re-check their condition in a loop, so
// spurious tokens are harmless.
func (e *Env) Wake(p *Proc) { e.WakeAt(e.now, p) }

// WakeAt schedules a wake for process p at absolute virtual time t.
func (e *Env) WakeAt(t float64, p *Proc) {
	if p.state == StateDone {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	e.scheduleProc(t, evWake, p)
}

// WakePair schedules one event at the current time that wakes a and then
// b, exactly as two consecutive Wake calls would but with a single queue
// entry — the batched fast path for symmetric completions (a rendezvous
// message finishing wakes sender and receiver together).
func (e *Env) WakePair(a, b *Proc) {
	if a.state == StateDone || b.state == StateDone {
		panic(fmt.Sprintf("sim: waking finished process %q/%q", a.name, b.name))
	}
	idx := e.allocSlot(e.now)
	s := &e.slots[idx]
	s.kind, s.proc, s.proc2 = evWakePair, a, b
}

// fireWake delivers one wake: a parked process resumes, a finished one
// drops the wake, anything else (running, timed wait, not started) keeps
// a token for its next Park.
func (e *Env) fireWake(p *Proc) {
	switch p.state {
	case StateParked:
		e.transferTo(p)
	case StateDone:
		// Process finished between scheduling and firing; drop.
	default:
		p.wakeTokens++
	}
}

// peekNext returns the queue position of the earliest live event without
// removing it: (slot index, whether it sits in the heap, found). Dead
// now-queue entries (cancelled in place) are drained and released here.
func (e *Env) peekNext() (int32, bool, bool) {
	for e.nowHead < len(e.nowq) {
		idx := e.nowq[e.nowHead]
		if !e.slots[idx].dead {
			break
		}
		e.nowHead++
		e.releaseSlot(idx)
	}
	if e.nowHead == len(e.nowq) {
		e.nowq, e.nowHead = e.nowq[:0], 0
	}
	hasNow := e.nowHead < len(e.nowq)
	hasHeap := len(e.heap) > 0
	switch {
	case hasNow && hasHeap:
		nowIdx := e.nowq[e.nowHead]
		ns := &e.slots[nowIdx]
		if entryLess(e.heap[0], heapEntry{time: ns.time, seq: ns.seq}) {
			return e.heap[0].idx, true, true
		}
		return nowIdx, false, true
	case hasNow:
		return e.nowq[e.nowHead], false, true
	case hasHeap:
		return e.heap[0].idx, true, true
	default:
		return 0, false, false
	}
}

// dispatch releases the slot and then executes the event. Releasing
// first means the event's own callback can recycle the slot and that a
// late Cancel on a fired event is a no-op, as before.
func (e *Env) dispatch(idx int32) {
	s := &e.slots[idx]
	kind := s.kind
	fn := s.fn
	fnArg, arg := s.fnArg, s.arg
	p, p2, res := s.proc, s.proc2, s.res
	s.gen += 2 // fired: handles go stale with even parity (not cancelled)
	e.releaseSlot(idx)
	switch kind {
	case evFn:
		fn()
	case evFnArg:
		fnArg(arg)
	case evStart:
		e.startProc(p)
	case evResume:
		p.pending = Event{}
		e.transferTo(p)
	case evWake:
		e.fireWake(p)
	case evWakePair:
		e.fireWake(p)
		e.fireWake(p2)
	case evFlow:
		res.complete()
	}
}

// Run executes events until the queue is exhausted or a process panics.
// It returns an error if a process panicked or if, after the queue drained,
// some processes are still parked (a deadlock in the simulated system).
func (e *Env) Run() error { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= t. The clock is left at the
// time of the last executed event (or at t if no event remained).
func (e *Env) RunUntil(t float64) error {
	if e.stopped {
		return fmt.Errorf("sim: environment already stopped")
	}
	for {
		idx, fromHeap, ok := e.peekNext()
		if !ok {
			break
		}
		s := &e.slots[idx]
		if s.time > t {
			// Leave it queued for a later RunUntil call.
			if e.now < t && !math.IsInf(t, 1) {
				e.now = t
			}
			return e.failure
		}
		if fromHeap {
			e.heapPopMin()
		} else {
			e.nowHead++
			s.pos = posDetached
		}
		e.now = s.time
		e.dispatch(idx)
		if e.failure != nil {
			e.stopped = true
			return e.failure
		}
	}
	if math.IsInf(t, 1) {
		if err := e.deadlockError(); err != nil {
			e.stopped = true
			return err
		}
	}
	return nil
}

// RunBefore executes events with timestamps strictly below t and leaves
// later events queued. The clock stays at the last executed event, so
// events delivered afterwards at times >= t never land in the past. It
// is the window-execution primitive of the conservative-lookahead
// parallel engine: each partition runs RunBefore(window) concurrently,
// then merges cross-partition messages at the barrier. No deadlock
// check happens here — an empty queue only means this partition is
// waiting for the next window.
func (e *Env) RunBefore(t float64) error {
	if e.stopped {
		return fmt.Errorf("sim: environment already stopped")
	}
	for {
		idx, fromHeap, ok := e.peekNext()
		if !ok {
			return nil
		}
		s := &e.slots[idx]
		if s.time >= t {
			return nil
		}
		if fromHeap {
			e.heapPopMin()
		} else {
			e.nowHead++
			s.pos = posDetached
		}
		e.now = s.time
		e.dispatch(idx)
		if e.failure != nil {
			e.stopped = true
			return e.failure
		}
	}
}

// NextEventTime returns the timestamp of the earliest queued live event,
// or false when the queue is empty. The parallel engine uses it to
// compute the global window floor between barriers.
func (e *Env) NextEventTime() (float64, bool) {
	idx, _, ok := e.peekNext()
	if !ok {
		return 0, false
	}
	return e.slots[idx].time, true
}

// EarliestOutput returns a lower bound on the virtual time at which
// this environment can next affect another partition. With no queued
// events the environment is inert until mail arrives (+Inf); otherwise
// the next event time is always a sound bound — nothing can happen
// before it — and a registered oracle may tighten it further (a parked
// compute phase cannot send before it ends, even though its completion
// event is already queued). Never lower than NextEventTime, so a
// confused oracle can only cost performance, not correctness. An
// infinite promise is honored only when the queue really is empty: a
// partition with queued events always reports a finite bound, so an
// oracle bug can never make the engine skip over live work.
func (e *Env) EarliestOutput() float64 {
	nt, ok := e.NextEventTime()
	if !ok {
		return math.Inf(1)
	}
	if e.oracle != nil {
		if b := e.oracle.EarliestOutputTime(); b > nt && !math.IsInf(b, 1) {
			return b
		}
	}
	return nt
}

// CheckDeadlock reports parked processes on a drained environment; the
// parallel engine calls it once every partition has run out of events
// and no inter-partition messages remain.
func (e *Env) CheckDeadlock() error { return e.deadlockError() }

// deadlockError reports parked processes after the event queue drained.
func (e *Env) deadlockError() error {
	var stuck []*Proc
	for _, p := range e.procs {
		if p.state == StateParked {
			stuck = append(stuck, p)
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].id < stuck[j].id })
	msg := "sim: deadlock, parked processes:"
	for _, p := range stuck {
		msg += fmt.Sprintf(" %q(%s)", p.name, p.parkReason)
	}
	return fmt.Errorf("%s", msg)
}
