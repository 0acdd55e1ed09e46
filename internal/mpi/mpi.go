// Package mpi implements a simulated MPI runtime on top of the
// discrete-event engine: ranks are sim processes, point-to-point messages
// follow eager or rendezvous protocols over the netsim interconnect, and
// collectives are built from the same point-to-point machinery with the
// standard algorithms (dissemination barrier, recursive-doubling
// allreduce, binomial trees, ring allgather).
//
// Because the protocol state machine is executed rather than approximated,
// communication pathologies emerge mechanistically: the rendezvous
// serialization chain of minisweep, barrier waiting behind a straggler in
// lbm, and the log(P) cost growth of soma's large allreduces.
//
// The API mirrors the MPI subset the SPEChpc 2021 codes use. Payloads are
// real []float64 slices (collectives really reduce them); ModelBytes
// carries the paper-scale message size that drives the timing model, so
// kernels can run scaled-down grids while communication costs stay at
// paper scale. Received payloads, collective results and Waitall slices
// live in the job's arenas and stay valid only until Run returns: a body
// that needs one afterwards copies it.
package mpi

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// Wildcards for Recv matching, and the tag space boundary: user tags must
// stay below TagUserMax because collectives use the space above it.
const (
	AnySource = -1
	AnyTag    = -1
	// TagUserMax is the first tag reserved for internal collective use.
	TagUserMax = 1 << 20
)

// Config describes one simulated MPI job.
type Config struct {
	// Cluster is the machine the job runs on.
	Cluster *machine.ClusterSpec
	// Net holds interconnect parameters; a zero value selects HDR100.
	Net netsim.Spec
	// Ranks is the number of MPI processes, block-mapped onto cores.
	Ranks int
	// Trace, if non-nil, receives per-rank timeline events.
	Trace *trace.Recorder
	// SimWorkers > 1 executes a multi-node job on the conservative-
	// lookahead parallel engine (internal/sim/psim) with that many
	// concurrent partition executors. Output is byte-identical to the
	// serial engine at every worker count; single-node jobs and
	// SimWorkers <= 1 run serially. Requires a fabric with a positive
	// latency floor.
	SimWorkers int
}

// Result is the outcome of a simulated job.
type Result struct {
	// Usage holds the aggregated performance/energy record.
	Usage machine.Usage
	// Trace is the recorder passed in the config (nil if none).
	Trace *trace.Recorder
	// Wall is the job wall-clock virtual time in seconds.
	Wall float64
	// Partitioned reports whether the job ran on the parallel engine;
	// Psim then holds its window statistics (zero for serial runs).
	Partitioned bool
	Psim        psim.Stats
	// Sim holds the engine's deterministic work counts (events
	// scheduled, processor-sharing retimes, process switches), summed
	// over partitions; identical on the serial and partitioned paths.
	Sim sim.Counters
}

// Job is the runtime state of a simulated MPI application and the one
// owner of everything a run recycles: the serial environment, the
// parallel engine with its partition environments, the System/Network
// instances, the Rank structs (with their matching-queue and
// collective-scratch capacity), the spawn closures and the arena chunks
// all survive across runs, so a steady-state campaign job performs no
// per-rank setup allocation and allocates no protocol object or
// payload. Idle Jobs wait on the idleJobs free list.
type Job struct {
	// budget caps the arena chunks the Job keeps, at maxRetainedBytes:
	// its protocol and payload arenas, the environments' flow arenas
	// and the network's transfer arenas all charge it.
	budget *sim.ArenaBudget
	env    *sim.Env     // serial engine, created by the first serial run
	eng    *psim.Engine // parallel engine, created by the first partitioned run
	rt     sim.Router
	sys    *machine.System
	net    *netsim.Network
	rec    *trace.Recorder
	ranks  []*Rank // live ranks for this run: rankStore[:n]

	// rankStore keeps every Rank ever created for this Job at its
	// high-water length, so shrinking and regrowing the job shape does
	// not reconstruct ranks.
	rankStore []*Rank

	// parts holds one protocol-object arena per node; live entries are
	// parts[:nodes]. Sharding by node keeps the allocation-free hot
	// path when partitions execute concurrently: every allocation
	// happens on the arena of the partition the allocating code runs
	// on, so arenas are never shared between executors.
	parts []partArena

	// Collective topology, precomputed once per run in mpi.Run instead
	// of per collective call: the dense identity participant list, the
	// node-leader list of the hierarchical allreduce, and the
	// cores-per-node stride that defines it.
	allRanks []int
	leaders  []int
	cpn      int

	// Adaptive-lookahead oracle state (attachOracle), one nodeCounts
	// per node. pending counts live point-to-point protocol activity
	// per node, from both sides: an Isend increments the source AND
	// destination node, and each side's count drops when its last
	// possible protocol event has provably fired — eager sources at
	// data arrival (the wire injection strictly precedes it), eager
	// destinations once header and data have both landed, rendezvous
	// both sides during the quiescent gap between header arrival and
	// match (re-armed with the CTS) and finally at the transfer
	// completion and delivery ack. While a node's count is nonzero,
	// protocol events not owned by any rank's park state may still
	// produce cross-node output, so its oracle makes no promise. The
	// pending counters are atomics because a remote partition's events
	// adjust this node's count mid-window; active (the node's ranks in
	// oActive, see Rank.setOState) is written only by the node's own
	// partition. Both are read only at window barriers, after the
	// engine's wg.Wait.
	oracleOn bool
	counts   []nodeCounts
	oracles  []nodeOracle
}

// nodeCounts pads each node's oracle counters to their own cache line:
// partition executors on several OS threads update them at once (an
// Isend bumps both endpoints' nodes, and every park or wake moves the
// active count), and unpadded they pack several to a line — hot paths
// of unrelated nodes would false-share every update.
type nodeCounts struct {
	pending atomic.Int64
	active  int64
	_       [48]byte
}

// nodeOracle is one node's sim.OutputOracle: a conservative promise
// about the node's next cross-partition send, derived from the park
// state of its ranks. The engine reads it only at window barriers.
type nodeOracle struct {
	j    *Job
	node int
}

// EarliestOutputTime returns a lower bound on the node's next
// cross-node send. No promise (-Inf, collapsing to the latency-floor
// window) whenever any protocol envelope touching the node is unsettled
// or any rank is mid-MPI-call — both read from counters in O(1), the
// common case on a wavefront's narrow windows; otherwise the earliest
// compute-phase end floor over computing ranks. Blocked ranks
// contribute no bound of their own: every path that could wake one is
// covered elsewhere — incoming or in-flight protocol events by the
// pending counter, local compute completions by their floor, and
// anything already queued by the environment's next-event bound
// (sim.Env.EarliestOutput takes the max with it). Nodes where every
// rank is blocked or done promise +Inf, which the environment honors
// only when its event queue is empty, so a deadlocked partition never
// gates other partitions' windows and is still reported by the normal
// drain-and-check path.
func (o *nodeOracle) EarliestOutputTime() float64 {
	j := o.j
	// An oActive rank is mid-call: its next action rides a queued event.
	if c := &j.counts[o.node]; c.pending.Load() != 0 || c.active != 0 {
		return math.Inf(-1)
	}
	bound := math.Inf(1)
	lo := o.node * j.cpn
	hi := lo + j.cpn
	if hi > len(j.ranks) {
		hi = len(j.ranks)
	}
	// Every rank is computing or blocked; a blocked rank, parked in a
	// wait, cannot send until woken.
	for _, r := range j.ranks[lo:hi] {
		if r.oState == oComputing {
			if f := j.sys.PhaseEndFloor(r.id); f < bound {
				bound = f
			}
		}
	}
	return bound
}

// notePending adjusts the unsettled-envelope count of a rank's node.
// No-op on the serial engine.
func (j *Job) notePending(rank int, d int64) {
	if j.oracleOn {
		j.counts[j.ranks[rank].place.Node].pending.Add(d)
	}
}

// attachOracle wires the per-node earliest-output oracle into the
// partition environments and arms the per-node counters. Called after
// init (every rank is oActive, the environments exist) and before the
// engine runs.
func (j *Job) attachOracle(eng *psim.Engine, nodes int) {
	if len(j.counts) < nodes {
		j.counts = make([]nodeCounts, nodes)
	}
	for i := range j.counts {
		j.counts[i].pending.Store(0)
		j.counts[i].active = 0
	}
	for node := 0; node < nodes; node++ {
		j.counts[node].active = int64(j.parts[node].ranks)
	}
	if len(j.oracles) < nodes {
		j.oracles = make([]nodeOracle, nodes)
	}
	for node := 0; node < nodes; node++ {
		j.oracles[node] = nodeOracle{j: j, node: node}
		eng.NodeEnv(node).SetOutputOracle(&j.oracles[node])
	}
	j.oracleOn = true
}

// testOracleCheck, when set by tests, runs after a successful
// partitioned run with the job still intact (invariant checks on the
// oracle state).
var testOracleCheck func(*Job)

// partArena is one node's arenas for protocol objects and payloads.
// Envelopes, requests and messages all die with the run, so handing
// them out from arenas trades one allocation per object for one per
// chunk, and a recycled Job keeps the chunks: reset rewinds them after
// each run, so a steady-state job allocates none. What a run hands
// out (payloads, collective results, Waitall slices) stays valid only
// until mpi.Run returns.
type partArena struct {
	ranks int // ranks on this node, for the oracle's active count
	envs  sim.Arena[envelope]
	reqs  sim.Arena[Request]
	msgs  sim.Arena[Message]
	// floats backs every payload copy (Isend capture, collective
	// accumulators) and slices the out-slice headers of
	// Allgather/Alltoall; msgPtrs backs Waitall result slices.
	floats  sim.Arena[float64]
	slices  sim.Arena[[]float64]
	msgPtrs sim.Arena[*Message]
}

// setBudget charges the chunks all six arenas keep to b.
func (pa *partArena) setBudget(b *sim.ArenaBudget) {
	pa.envs.SetBudget(b)
	pa.reqs.SetBudget(b)
	pa.msgs.SetBudget(b)
	pa.floats.SetBudget(b)
	pa.slices.SetBudget(b)
	pa.msgPtrs.SetBudget(b)
}

// reset rewinds the arenas after a run. The pointer-holding ones
// are zeroed, so an idle Job keeps nothing alive outside itself (such
// as a kernel buffer a finished request pointed at). The floats hold no
// pointers and every handout is overwritten (cloneFloats), so instead
// of zeroes they get NaN: anything that still reads a payload of the
// finished run, such as a report value aliasing it, reads NaN, and the
// goldens of every package that runs jobs catch it.
func (pa *partArena) reset() {
	pa.envs.Reset()
	pa.reqs.Reset()
	pa.msgs.Reset()
	pa.slices.Reset()
	pa.msgPtrs.Reset()
	pa.floats.Fill(math.NaN())
	pa.floats.Rewind()
}

// cloneFloats copies data into the node's payload arena. Every value
// is overwritten, so the float chunks need no zeroing. An empty payload
// returns nil, as `append([]float64(nil), data...)` would.
func (pa *partArena) cloneFloats(data []float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	s := pa.floats.Slice(len(data))
	copy(s, data)
	return s
}

// arena returns the rank's node-local arena; all of a rank's own
// allocations come from it.
func (r *Rank) arena() *partArena { return &r.job.parts[r.place.Node] }

// arenaOf returns the arena of the node hosting the given rank — used
// by destination-side protocol events (message construction on receive).
func (j *Job) arenaOf(rank int) *partArena {
	return &j.parts[j.ranks[rank].place.Node]
}

// envOf returns the environment simulating the given rank's node.
func (j *Job) envOf(rank int) *sim.Env {
	return j.rt.NodeEnv(j.ranks[rank].place.Node)
}

// post schedules fn(arg) delay seconds from now on the partition of
// dstRank's node, from code currently executing on srcRank's partition.
// On the serial engine this is a plain Env.After; on the parallel engine
// cross-node posts travel through the window-barrier mailbox. delay must
// be at least the fabric latency floor for cross-node posts — true for
// every protocol event, which is what makes conservative windows safe.
func (j *Job) post(srcRank, dstRank int, delay float64, fn func(any), arg any) {
	srcNode := j.ranks[srcRank].place.Node
	dstNode := j.ranks[dstRank].place.Node
	e := j.rt.NodeEnv(srcNode)
	j.rt.Post(srcNode, dstNode, e.Now()+delay, fn, arg)
}

// jobList is a free list of Jobs between runs, most recently idled
// last. It holds at most runtime.GOMAXPROCS(0) Jobs, one per executor
// that can run a job at once, keeping at most maxBytes of arena chunks
// between them; a Job that would pass either bound is dropped to the
// GC. The GC never empties the list, so how much a job allocates does
// not depend on when the last collection ran.
type jobList struct {
	sync.Mutex
	list     []*Job
	bytes    int // arena chunks the idle Jobs keep
	maxBytes int
}

// idleJobs is the free list Run takes its Jobs from.
var idleJobs = jobList{maxBytes: maxRetainedBytes}

// get takes the most recently idled Job, or a new one.
func (l *jobList) get() *Job {
	l.Lock()
	defer l.Unlock()
	n := len(l.list) - 1
	if n < 0 {
		return &Job{}
	}
	j := l.list[n]
	l.list[n] = nil
	l.list = l.list[:n]
	l.bytes -= j.retainedBytes()
	return j
}

// put idles a Job after a run, unless that would pass the list's
// bounds.
func (l *jobList) put(j *Job) {
	b := j.retainedBytes()
	l.Lock()
	defer l.Unlock()
	if len(l.list) < runtime.GOMAXPROCS(0) && l.bytes+b <= l.maxBytes {
		l.list = append(l.list, j)
		l.bytes += b
	}
}

// Rank is one MPI process. All methods must be called from within the
// rank's own body function.
type Rank struct {
	job   *Job
	id    int
	name  string // process name, built once when the Rank is created
	proc  *sim.Proc
	place machine.Placement
	body  func(*Rank)
	runFn func(*sim.Proc) // persistent spawn closure; reused across runs

	unexpected []*envelope
	posted     []*Request
	bounds     [][2]int // rsag chunk-bounds scratch; never escapes a collective
	collSeq    int
	collKind   trace.Kind
	inColl     bool
	// oState is the rank's park state as seen by the adaptive-lookahead
	// oracle. Written only by the rank's own partition; read by the
	// engine coordinator at window barriers (ordered by the barrier's
	// wg.Wait / channel handoff). Change it with setOState.
	oState uint8
}

// Oracle park states. oActive is the zero value: any rank not known to
// be in a promisable state makes no promise.
const (
	oActive    uint8 = iota // running or mid-MPI-call
	oComputing              // inside Rank.Compute: promise PhaseEndFloor
	oBlocked                // parked in a wait, or finished: silent until woken
)

// setOState moves the rank to oracle park state s, keeping its node's
// count of oActive ranks current on the partitioned engine.
func (r *Rank) setOState(s uint8) {
	if j := r.job; j.oracleOn {
		c := &j.counts[r.place.Node].active
		if r.oState == oActive {
			*c--
		}
		if s == oActive {
			*c++
		}
	}
	r.oState = s
}

// boundsScratch returns the rank's reusable [n][2]int table for the
// reduce-scatter/allgather segment arithmetic.
func (r *Rank) boundsScratch(n int) [][2]int {
	if cap(r.bounds) < n {
		r.bounds = make([][2]int, n)
	}
	return r.bounds[:n]
}

// Run simulates an MPI job: it spawns cfg.Ranks processes each executing
// body, runs the event loop to completion, and returns the aggregated
// usage. An error is returned for deadlocks or panics inside rank bodies.
func Run(cfg Config, body func(r *Rank)) (Result, error) {
	if cfg.Cluster == nil {
		return Result{}, fmt.Errorf("mpi: config without cluster")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Ranks <= 0 {
		return Result{}, fmt.Errorf("mpi: non-positive rank count %d", cfg.Ranks)
	}
	if cfg.Ranks > cfg.Cluster.MaxRanks() {
		return Result{}, fmt.Errorf("mpi: %d ranks exceed %s capacity %d",
			cfg.Ranks, cfg.Cluster.Name, cfg.Cluster.MaxRanks())
	}
	if cfg.Net.Name == "" {
		cfg.Net = netsim.HDR100()
	}
	if err := cfg.Net.Validate(); err != nil {
		return Result{}, err
	}

	j := idleJobs.get()
	res, err := j.run(cfg, body)
	idleJobs.put(j)
	return res, err
}

// run executes one validated job on the Job's own engines. A
// multi-node job with SimWorkers > 1 runs on the conservative-
// lookahead parallel engine; everything else runs serially. The two
// paths produce byte-identical results (pinned by the determinism
// goldens), so the choice is purely a wall-clock matter. A failed run
// (deadlock, panic) rewinds the Job like a clean one.
func (j *Job) run(cfg Config, body func(r *Rank)) (Result, error) {
	if j.budget == nil {
		j.budget = sim.NewArenaBudget(maxRetainedBytes)
	}
	nodes := cfg.Cluster.NodesFor(cfg.Ranks)
	if cfg.SimWorkers > 1 && nodes > 1 {
		return j.runPartitioned(cfg, nodes, body)
	}
	if j.env == nil {
		j.env = sim.NewEnv()
		j.env.SetArenaBudget(j.budget)
	}
	j.init(sim.UniRouter{E: j.env}, cfg, body)
	var res Result
	err := j.env.Run()
	if err == nil {
		u := j.sys.Usage()
		res = Result{Usage: u, Trace: cfg.Trace, Wall: u.Wall, Sim: j.env.Counters()}
	}
	j.env.Reset()
	j.release()
	return res, err
}

// runPartitioned executes a multi-node job on the psim engine: one
// partition per node, advancing concurrently inside lookahead windows
// derived from the fabric latency floor.
func (j *Job) runPartitioned(cfg Config, nodes int, body func(r *Rank)) (Result, error) {
	floor, err := cfg.Net.LatencyFloor()
	if err != nil {
		return Result{}, fmt.Errorf("mpi: SimWorkers=%d: %w", cfg.SimWorkers, err)
	}
	if j.eng == nil {
		j.eng = &psim.Engine{}
		j.eng.SetArenaBudget(j.budget)
	}
	j.eng.Reset(nodes, cfg.SimWorkers, floor)
	j.init(j.eng, cfg, body)
	j.attachOracle(j.eng, nodes)
	if err := j.eng.Run(); err != nil {
		j.release()
		return Result{}, err
	}
	if testOracleCheck != nil {
		testOracleCheck(j)
	}
	u := j.sys.Usage()
	j.release()
	return Result{Usage: u, Trace: cfg.Trace, Wall: u.Wall,
		Partitioned: true, Psim: j.eng.Stats(), Sim: j.eng.Counters()}, nil
}

// init prepares a Job for one run: reinitializes the machine and
// network instances in place, resets the live ranks, and precomputes the
// collective topology. In steady state (shapes at or below the Job's
// high-water marks) it allocates nothing. The router decides the
// execution mode: sim.UniRouter for the serial engine, a psim.Engine for
// partitioned execution — the job wiring is identical either way.
func (j *Job) init(rt sim.Router, cfg Config, body func(r *Rank)) {
	n := cfg.Ranks
	j.rt, j.rec = rt, cfg.Trace
	j.oracleOn = false // armed separately by attachOracle
	if j.sys == nil {
		j.sys = &machine.System{}
	}
	j.sys.Reinit(rt, cfg.Cluster, n)
	nodes := cfg.Cluster.NodesFor(n)
	if j.net == nil {
		j.net = &netsim.Network{}
		j.net.SetArenaBudget(j.budget)
	}
	j.net.Reinit(rt, cfg.Net, nodes)

	// Per-node arenas; release rewound the last run's chunks for reuse.
	for len(j.parts) < nodes {
		j.parts = append(j.parts, partArena{})
		j.parts[len(j.parts)-1].setBudget(j.budget)
	}
	cpn := cfg.Cluster.CPU.CoresPerNode()
	for node := 0; node < nodes; node++ {
		onNode := n - node*cpn
		if onNode > cpn {
			onNode = cpn
		}
		j.parts[node].ranks = onNode
	}

	// Collective topology for this job: identity participant list and
	// node-leader list, shared by every collective call of the run.
	j.cpn = cpn
	j.allRanks = j.allRanks[:0]
	j.leaders = j.leaders[:0]
	for i := 0; i < n; i++ {
		j.allRanks = append(j.allRanks, i)
	}
	for l := 0; l < n; l += j.cpn {
		j.leaders = append(j.leaders, l)
	}

	for id := len(j.rankStore); id < n; id++ {
		r := &Rank{job: j, id: id, name: fmt.Sprintf("rank%d", id)}
		// The spawn closure is built once per Rank lifetime and reused
		// by every run, so spawning allocates no per-run closure.
		r.runFn = func(p *sim.Proc) {
			r.proc = p
			r.body(r)
			// A finished rank never sends again: permanently silent to
			// the oracle.
			r.setOState(oBlocked)
			r.job.sys.RankFinished(r.id, p.Now())
		}
		j.rankStore = append(j.rankStore, r)
	}
	j.ranks = j.rankStore[:n]
	for _, r := range j.ranks {
		r.place = cfg.Cluster.Place(r.id)
		r.body = body
		r.collSeq, r.collKind, r.inColl = 0, 0, false
		r.oState = oActive
		// Each rank lives on the partition simulating its node; under
		// the serial router every node maps to the same environment.
		r.proc = rt.NodeEnv(r.place.Node).Spawn(r.name, r.runFn)
	}
}

// release rewinds the run's arenas for the next run and severs
// references an idle Job must not retain. Stale entries left in the
// matching queues' backing arrays point only into the Job's own arenas.
func (j *Job) release() {
	j.rt, j.rec = nil, nil
	for i := range j.parts {
		j.parts[i].reset()
	}
	j.net.Release()
	for _, r := range j.rankStore {
		r.body, r.proc = nil, nil
		r.posted, r.unexpected = r.posted[:0], r.unexpected[:0]
	}
}

// maxRetainedBytes caps the arena chunks one Job keeps (its budget)
// and the chunks all idle Jobs keep together (the free list's bound). A
// run that needs more hands out the rest from chunks the GC reclaims
// mid-run, as it would without arenas. The cap sits above the largest
// working set of the paper's multi-node jobs (Figs. 5-6 on 4 to 16
// nodes): one Job that ran all of them keeps 352 MB, most of it for
// minisweep on 16 ClusterB nodes, so those jobs all reuse their chunks.
const maxRetainedBytes = 512 << 20

// retainedBytes returns the size of every arena chunk the Job keeps.
func (j *Job) retainedBytes() int {
	if j.budget == nil {
		return 0
	}
	return j.budget.Kept()
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the job.
func (r *Rank) Size() int { return len(r.job.ranks) }

// Place returns the rank's hardware placement.
func (r *Rank) Place() machine.Placement { return r.place }

// Now returns the current virtual time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// Cluster returns the cluster specification the job runs on.
func (r *Rank) Cluster() *machine.ClusterSpec { return r.job.sys.Spec() }

// Compute executes a compute phase on this rank's core through the
// machine model and records it on the trace timeline. For the duration
// of the phase the rank promises the oracle it cannot send before the
// phase's end floor (machine.System.PhaseEndFloor).
func (r *Rank) Compute(ph machine.Phase) {
	t0 := r.proc.Now()
	r.setOState(oComputing)
	r.job.sys.Compute(r.proc, r.id, ph)
	r.setOState(oActive)
	r.job.rec.Record(r.id, trace.KindCompute, t0, r.proc.Now(), -1)
}

// traceKind returns the kind to attribute an MPI interval to: the
// surrounding collective if one is active, otherwise the point-to-point
// default.
func (r *Rank) traceKind(def trace.Kind) trace.Kind {
	if r.inColl {
		return r.collKind
	}
	return def
}

// mpiInterval charges [t0,now) as MPI time to power accounting and the
// trace.
func (r *Rank) mpiInterval(kind trace.Kind, t0 float64, peer int) {
	now := r.proc.Now()
	if now <= t0 {
		return
	}
	r.job.sys.AccountMPI(r.id, now-t0)
	r.job.rec.Record(r.id, kind, t0, now, peer)
}

// wake makes the rank re-check its blocking condition if it is parked.
// Ranks in timed waits or running observe state changes on their own.
// Must be called from the rank's own partition.
func (j *Job) wake(rank int) {
	p := j.ranks[rank].proc
	if p.State() == sim.StateParked {
		j.envOf(rank).Wake(p)
	}
}

// wakePair wakes ranks a and b (in that order) after a symmetric
// completion. When both are parked the wakes share one batched queue
// entry instead of one event per rank. Only used for same-node
// completions (intra-node rendezvous), so both ranks share a partition.
func (j *Job) wakePair(a, b int) {
	pa, pb := j.ranks[a].proc, j.ranks[b].proc
	aParked := pa.State() == sim.StateParked
	bParked := pb.State() == sim.StateParked
	switch {
	case aParked && bParked:
		j.envOf(a).WakePair(pa, pb)
	case aParked:
		j.envOf(a).Wake(pa)
	case bParked:
		j.envOf(b).Wake(pb)
	}
}
