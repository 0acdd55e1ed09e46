// Package psim is the conservative-lookahead parallel execution engine
// for one large simulated job: it partitions a multi-node job into one
// logical partition per node, each with its own event queue and clock
// (a sim.Env), and advances all partitions concurrently inside safe
// windows derived from the interconnect latency floor.
//
// The scheme is the classic null-message-free window synchronization
// (YAWNS / bounded-lag Chandy-Misra): because every cross-node effect
// trails its cause by at least the inter-node latency L (netsim's
// cut-through transfer model guarantees this for headers, data legs,
// CTS, and ACK alike), all partitions may execute events in
// [T, T+L) concurrently, where T is the global minimum next-event time.
// Cross-partition sends become timestamped mail collected in per-source
// outboxes during the window and merged into the receivers' queues at
// the barrier, ordered by (time, source partition, submission order) —
// a canonical order independent of how the window's execution
// interleaved. Each partition assigns its own (time, seq) tiebreaks
// from its private counter, so the simulation is deterministic and
// byte-identical for ANY worker count, including one. The serial
// engine's identity to the partitioned one is pinned by the determinism
// goldens in internal/spec.
//
// Windows widen beyond the latency floor using per-partition
// earliest-output-time promises (sim.Env's EarliestOutput, fed by the
// MPI layer's oracle): each barrier advances to min over partitions of
// EOT plus the latency floor, and never to less than T+L. Because every
// promise is a sound lower bound on the partition's next cross-node
// send, all mail posted inside the wider window still carries
// timestamps at or past the next barrier; Post rejects mail that breaks
// that contract, failing the run. Because windows only partition
// virtual time — equal-timestamp mail always lands in the same window
// under any window schedule — the canonical merge order, and therefore
// the output bytes, are unchanged. A compute-heavy job that would take
// ~10^5 latency-floor windows collapses to a few hundred barriers.
//
// Each window's active partitions run either on worker goroutines or
// inline on the coordinator, one after another. Only windows likely to
// hold enough work pay the worker hand-off: a window runs inline when
// the previous one ran fewer than dispatchMinSwitches process switches.
// A rendezvous wavefront (minisweep) resolves down a chain in tens of
// thousands of such narrow windows, where the hand-off would cost more
// than the work. The choice is execution strategy only: partitions
// share no mutable state within a window, so running them in any order
// on any goroutine yields the same events, mail, and output bytes.
package psim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/spechpc/spechpc-sim/internal/sim"
)

// mail is one cross-partition event in flight: fn(arg) scheduled at
// absolute time t on the destination, posted by partition src.
type mail struct {
	t   float64
	src int32
	fn  func(any)
	arg any
}

// partition is one per-node logical partition: its environment plus the
// outboxes it fills during a window (indexed by destination partition).
// Only the owning partition appends to its outboxes and sets mailed, so
// window execution shares no mutable state between partitions.
type partition struct {
	env    *sim.Env
	out    [][]mail
	mailed bool // posted cross-partition mail since the last barrier
}

// Engine coordinates the window loop. It implements sim.Router: node i
// maps to partition i, always — the partition structure is a property
// of the job, not of the worker count, which is what makes output
// independent of parallelism.
type Engine struct {
	parts     []*partition // live partitions: partStore[:nodes]
	partStore []*partition
	budget    *sim.ArenaBudget // charged with the partitions' flow chunks
	lookahead float64
	workers   int

	window  float64      // current window end, set before dispatch
	inbox   []mail       // per-destination merge scratch
	senders []*partition // partitions with mail at the barrier, scratch
	work    chan *partition
	wg      sync.WaitGroup
	mu      sync.Mutex
	err     error
	stat    Stats
	// counters are the finished run's work counts, summed by finish.
	counters sim.Counters

	// switches is the partitions' summed process-switch count at the
	// end of the last window; narrow records that the last window ran
	// fewer than dispatchMinSwitches of them, so the next runs inline.
	switches int64
	narrow   bool
}

// Stats counts one run's window behavior; read it with Engine.Stats
// after Run and before the next Reset. The counters make the window policy
// observable without a profiler: a compute-heavy job shows Windows
// orders of magnitude below the latency-floor count while Mail counts
// the same simulation's cross-partition traffic.
type Stats struct {
	// Windows is the number of barrier-to-barrier windows executed.
	Windows int64 `json:"windows"`
	// AdaptiveWindows counts windows the oracle widened beyond the
	// latency floor.
	AdaptiveWindows int64 `json:"adaptive_windows"`
	// Mail is the number of cross-partition events merged at barriers.
	Mail int64 `json:"mail_merged"`
	// IdleParts counts partition×window pairs where a partition had no
	// event before the window end (it sat out the barrier).
	IdleParts int64 `json:"idle_partition_windows"`
	// Dispatched counts windows whose partitions were handed to worker
	// goroutines; every other window ran inline on the coordinator.
	Dispatched int64 `json:"dispatched_windows"`
	// Widest and Narrowest are the extreme window spans (window end
	// minus global minimum event time) in virtual seconds. Narrowest is
	// never below the lookahead: windows only ever widen.
	Widest    float64 `json:"widest_window_s"`
	Narrowest float64 `json:"narrowest_window_s"`
}

// Stats returns the counters of the engine's last (or in-progress) run.
func (g *Engine) Stats() Stats { return g.stat }

// Counters returns the work counts of the last run, failed or clean,
// summed over partitions; read it after Run and before the next Reset.
func (g *Engine) Counters() sim.Counters { return g.counters }

// Totals aggregates window statistics across engine runs: a
// campaign.Scheduler keeps one for the runs it executes (the /statsz
// and spechpc -v numbers), and the process keeps one for Snapshot.
type Totals struct {
	// Runs counts the runs added.
	Runs int64 `json:"runs"`
	Stats
}

// Add folds one finished run's stats into t.
func (t *Totals) Add(o Stats) {
	t.Runs++
	t.Windows += o.Windows
	t.AdaptiveWindows += o.AdaptiveWindows
	t.Mail += o.Mail
	t.IdleParts += o.IdleParts
	t.Dispatched += o.Dispatched
	if o.Widest > t.Widest {
		t.Widest = o.Widest
	}
	if t.Narrowest == 0 || (o.Narrowest > 0 && o.Narrowest < t.Narrowest) {
		t.Narrowest = o.Narrowest
	}
}

// Process-wide totals across every engine run, whichever scheduler (or
// direct caller) ran it.
var (
	totalsMu sync.Mutex
	totals   Totals
)

// Snapshot returns the process-wide window statistics accumulated by
// every engine run so far. It remains only for the perfbench harness,
// which measures one daemon per process and diffs snapshots around each
// run; servers and CLIs read their scheduler's campaign.Stats.Psim,
// which counts only the runs that scheduler executed.
func Snapshot() Totals {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	return totals
}

// flushTotals folds the finished run's counters into the process-wide
// snapshot.
func (g *Engine) flushTotals() {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	totals.Add(g.stat)
}

// Reset prepares a zero or reused engine for a job spanning nodes
// partitions, executed by up to workers concurrent executors, with the
// given conservative lookahead (netsim.Spec.LatencyFloor). A partition
// gets its environment when it is first created and keeps it across
// runs, failed ones included.
// Windows widen past the latency floor using the partitions'
// EarliestOutput bounds; partitions with no oracle promise only their
// next event time, which keeps their windows at the floor.
func (g *Engine) Reset(nodes, workers int, lookahead float64) {
	if nodes <= 0 {
		panic("psim: engine with no partitions")
	}
	if lookahead <= 0 {
		panic("psim: non-positive lookahead")
	}
	g.lookahead = lookahead
	g.window = 0
	g.stat = Stats{}
	g.counters = sim.Counters{}
	g.workers = min(workers, nodes)
	for len(g.partStore) < nodes {
		p := &partition{env: sim.NewEnv()}
		if g.budget != nil {
			p.env.SetArenaBudget(g.budget)
		}
		g.partStore = append(g.partStore, p)
	}
	g.parts = g.partStore[:nodes]
	for _, p := range g.parts {
		p.env.Reset()
		for len(p.out) < nodes {
			p.out = append(p.out, nil)
		}
	}
	g.err = nil
}

// finish ends a run, failed or clean: it records the partitions' work
// counts, rewinds their environments and empties their outboxes, so an
// idle engine pins nothing from the finished job.
func (g *Engine) finish() {
	for _, p := range g.parts {
		g.counters = g.counters.Add(p.env.Counters())
		p.env.Reset()
		for d := range p.out {
			clear(p.out[d])
			p.out[d] = p.out[d][:0]
		}
		p.mailed = false
	}
}

// SetArenaBudget charges the flow chunks of every partition
// environment the engine creates to b. Call it before the engine's
// first run.
func (g *Engine) SetArenaBudget(b *sim.ArenaBudget) { g.budget = b }

// NodeEnv returns the partition environment simulating the given node.
func (g *Engine) NodeEnv(node int) *sim.Env { return g.parts[node].env }

// Post schedules fn(arg) at absolute time t on node dst's partition.
// Same-partition posts schedule directly; cross-partition posts go to
// the source's outbox and are merged at the next window barrier. The
// conservative contract — t is at or past the current window end, which
// the source's earliest-output promise and the lookahead guarantee —
// means the destination has not advanced past t. Mail that breaks it
// would land in the destination's past, so it is dropped and fails the
// run instead.
func (g *Engine) Post(src, dst int, t float64, fn func(any), arg any) {
	if src == dst {
		g.parts[src].env.At(t, fn, arg)
		return
	}
	if t < g.window {
		g.fail(fmt.Errorf("psim: partition %d posted mail for partition %d at t=%g, inside the window ending at %g",
			src, dst, t, g.window))
		return
	}
	p := g.parts[src]
	p.out[dst] = append(p.out[dst], mail{t: t, src: int32(src), fn: fn, arg: arg})
	p.mailed = true
}

// Run executes the window loop to completion: deliver pending mail,
// find the global minimum next-event time T, execute every partition's
// events in [T, w) concurrently, repeat. The window end w is the global
// earliest-output bound plus the lookahead, or T+lookahead if that is
// later: every partition has promised not to post cross-partition mail
// before the bound, and all mail trails its cause by at least the
// lookahead, so nothing can land inside the window. It returns the
// first process panic or broken Post contract, or a deadlock error if
// parked processes remain after all queues and mailboxes drain.
func (g *Engine) Run() error {
	defer g.flushTotals()
	defer g.finish()
	if g.workers > 1 {
		// Workers receive the channel by value: the engine field is
		// cleared on return while late-starting workers still read from
		// the (closed) channel.
		g.work = make(chan *partition)
		for i := 0; i < g.workers; i++ {
			go g.worker(g.work)
		}
		defer func() {
			close(g.work)
			g.work = nil
		}()
	}
	// The first window always dispatches: nothing has measured the
	// job's window size yet.
	g.switches, g.narrow = g.totalSwitches(), false
	for {
		g.deliver()
		t, ok := g.minNextEvent()
		if !ok {
			break
		}
		// span is recorded as exactly the lookahead for unwidened
		// windows (t+lookahead-t can round one ulp below it), so the
		// Narrowest counter honors "windows only widen" literally.
		span := g.lookahead
		w := t + g.lookahead
		// minEarliestOutput is finite here (the partition owning t
		// reports at most a finite bound while events are queued) and
		// never below t; the IsInf check is pure defense.
		if eo := g.minEarliestOutput(t); eo > t && !math.IsInf(eo, 1) {
			w = eo + g.lookahead
			span = w - t
			g.stat.AdaptiveWindows++
		}
		g.noteWindow(span)
		g.runWindow(w)
		if g.err != nil {
			return g.err
		}
	}
	for _, p := range g.parts {
		if err := p.env.CheckDeadlock(); err != nil {
			return err
		}
	}
	return nil
}

// minEarliestOutput returns the earliest time any partition may next
// produce cross-partition output: the min over partitions of their
// EarliestOutput bound. Partitions with no queued events are inert
// until mail reaches them (+Inf) and do not gate the window. It stops
// at the first bound at or below the window floor t: the window cannot
// widen then, so the remaining partitions' oracles need not be asked.
func (g *Engine) minEarliestOutput(t float64) float64 {
	m := math.Inf(1)
	for _, p := range g.parts {
		if eo := p.env.EarliestOutput(); eo < m {
			if m = eo; m <= t {
				break
			}
		}
	}
	return m
}

// noteWindow records one window's span in the run counters.
func (g *Engine) noteWindow(span float64) {
	g.stat.Windows++
	if span > g.stat.Widest {
		g.stat.Widest = span
	}
	if g.stat.Narrowest == 0 || span < g.stat.Narrowest {
		g.stat.Narrowest = span
	}
}

// deliver merges every outbox into its destination queue, ordered by
// (time, source partition, submission order). The order is canonical —
// it depends only on the simulation, not on which worker ran what when —
// so the destination's private seq counter assigns identical tiebreaks
// on every run at every worker count. Only partitions that posted mail
// are scanned, so a narrow window with one sender costs O(partitions).
func (g *Engine) deliver() {
	senders := g.senders[:0]
	for _, ps := range g.parts {
		if ps.mailed {
			senders = append(senders, ps)
			ps.mailed = false
		}
	}
	g.senders = senders
	if len(senders) == 0 {
		return
	}
	for d, pd := range g.parts {
		box := g.inbox[:0]
		for _, ps := range senders {
			if len(ps.out[d]) > 0 {
				box = append(box, ps.out[d]...)
				clear(ps.out[d])
				ps.out[d] = ps.out[d][:0]
			}
		}
		if len(box) == 0 {
			continue
		}
		g.stat.Mail += int64(len(box))
		slices.SortStableFunc(box, mailOrder)
		for i := range box {
			pd.env.At(box[i].t, box[i].fn, box[i].arg)
		}
		clear(box)
		g.inbox = box[:0]
	}
}

// mailOrder orders barrier mail by (time, source partition); with a
// stable sort, submission order breaks the remaining ties. A top-level
// function keeps the per-window sort allocation-free.
func mailOrder(a, b mail) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.src, b.src)
}

// minNextEvent returns the earliest queued event time across partitions.
func (g *Engine) minNextEvent() (float64, bool) {
	var t float64
	found := false
	for _, p := range g.parts {
		if nt, ok := p.env.NextEventTime(); ok && (!found || nt < t) {
			t, found = nt, true
		}
	}
	return t, found
}

// dispatchMinSwitches is the process-switch count a window must reach
// for the next window to be handed to workers. Window sizes are
// bimodal: wavefront windows run a few switches, the bulk of every
// halo-exchange or compute-bound job runs in windows of hundreds, so
// the threshold sits between the modes.
const dispatchMinSwitches = 64

// runWindow executes every partition with work before the window end.
// They run concurrently on the workers when more than one is active,
// workers exist, and the previous window was not narrow; otherwise they
// run inline on the coordinator, skipping the dispatch round trip —
// which a lone straggling partition or a wavefront's few process
// switches never earn back.
func (g *Engine) runWindow(w float64) {
	g.window = w
	var solo *partition
	active := 0
	for _, p := range g.parts {
		if nt, ok := p.env.NextEventTime(); ok && nt < w {
			active++
			solo = p
		}
	}
	g.stat.IdleParts += int64(len(g.parts) - active)
	switch {
	case active == 0:
		return
	case active == 1:
		g.runOne(solo)
	case g.work == nil || g.narrow:
		for _, p := range g.parts {
			if nt, ok := p.env.NextEventTime(); ok && nt < w {
				g.runOne(p)
			}
		}
	default:
		g.stat.Dispatched++
		g.wg.Add(active)
		for _, p := range g.parts {
			if nt, ok := p.env.NextEventTime(); ok && nt < w {
				g.work <- p
			}
		}
		g.wg.Wait()
	}
	s := g.totalSwitches()
	g.switches, g.narrow = s, s-g.switches < dispatchMinSwitches
}

// totalSwitches sums the partitions' process-switch counters.
func (g *Engine) totalSwitches() int64 {
	var n int64
	for _, p := range g.parts {
		n += p.env.Counters().Switches
	}
	return n
}

// worker drains partition executions dispatched by runWindow. The
// window bound read inside runOne is ordered by the channel handoff:
// runWindow writes g.window before sending, the send happens-before the
// receive, and wg.Wait keeps every worker parked between windows.
func (g *Engine) worker(work chan *partition) {
	for p := range work {
		g.runOne(p)
		g.wg.Done()
	}
}

// runOne advances one partition to the window end, recording the first
// failure.
func (g *Engine) runOne(p *partition) {
	if err := p.env.RunBefore(g.window); err != nil {
		g.fail(err)
	}
}

// fail records err as the run's failure unless an earlier one stands.
// Partitions call it concurrently from worker goroutines.
func (g *Engine) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}
