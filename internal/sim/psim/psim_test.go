package psim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/sim"
)

const look = 1e-6 // lookahead used throughout; posts delay by >= this

// newEngine returns an engine reset for nodes partitions and workers
// executors at the test lookahead.
func newEngine(nodes, workers int) *Engine {
	g := &Engine{}
	g.Reset(nodes, workers, look)
	return g
}

// ping bounces a token between two partitions: each hop posts the next
// hop one lookahead ahead on the peer, recording the hop times.
type ping struct {
	g     *Engine
	a, b  int
	hops  int
	times []float64
	from  int
}

func (p *ping) hop(any) {
	dst := p.a
	if p.from == p.a {
		dst = p.b
	}
	p.times = append(p.times, p.g.NodeEnv(p.from).Now())
	if p.hops--; p.hops <= 0 {
		return
	}
	src := p.from
	p.from = dst
	p.g.Post(src, dst, p.g.NodeEnv(src).Now()+look, p.hop, nil)
}

// TestCrossPartitionPingPong bounces a token across the partition
// boundary and checks every hop lands exactly one lookahead after the
// previous one, at every worker count.
func TestCrossPartitionPingPong(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		g := newEngine(2, workers)
		p := &ping{g: g, a: 0, b: 1, hops: 5, from: 0}
		g.NodeEnv(0).At(0, p.hop, nil)
		if err := g.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(p.times) != 5 {
			t.Fatalf("workers=%d: %d hops, want 5", workers, len(p.times))
		}
		for i, tm := range p.times {
			if want := float64(i) * look; tm != want {
				t.Errorf("workers=%d hop %d at %v, want %v", workers, i, tm, want)
			}
		}
	}
}

// TestMergeOrderIsCanonical posts mail to one destination from several
// source partitions with colliding timestamps and checks delivery order
// is (time, source partition, submission order) regardless of worker
// count — the property that makes the destination's seq tiebreaks, and
// hence the whole simulation, independent of execution interleaving.
func TestMergeOrderIsCanonical(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		g := newEngine(4, workers)
		var got strings.Builder
		rec := func(a any) { fmt.Fprintf(&got, "%s@%v ", a.(string), g.NodeEnv(0).Now()) }
		// Sources 3, 2, 1 post at identical times; source order must win.
		for src := 3; src >= 1; src-- {
			src := src
			g.NodeEnv(src).At(0, func(any) {
				t0 := g.NodeEnv(src).Now() + look
				g.Post(src, 0, t0, rec, fmt.Sprintf("s%d-first", src))
				g.Post(src, 0, t0, rec, fmt.Sprintf("s%d-second", src))
			}, nil)
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = got.String()
			wantOrder := "s1-first@1e-06 s1-second@1e-06 s2-first@1e-06 s2-second@1e-06 s3-first@1e-06 s3-second@1e-06 "
			if want != wantOrder {
				t.Fatalf("merge order %q, want %q", want, wantOrder)
			}
		} else if got.String() != want {
			t.Errorf("workers=%d delivered %q, want %q", workers, got.String(), want)
		}
	}
}

// TestDeadlockDetected parks a process that nothing ever wakes and
// expects Run to fail once all queues drain. The engine keeps the
// deadlocked partition's environment, rewound, and runs the next job on
// it cleanly.
func TestDeadlockDetected(t *testing.T) {
	g := newEngine(2, 2)
	g.NodeEnv(1).Spawn("stuck", func(p *sim.Proc) { p.Park("never woken") })
	if err := g.Run(); err == nil {
		t.Fatal("deadlocked run reported success")
	}
	failed := g.NodeEnv(1)
	if failed.Now() != 0 || failed.Counters() != (sim.Counters{}) {
		t.Fatalf("failed run left its partition unrewound: now=%v counters=%+v", failed.Now(), failed.Counters())
	}
	g.Reset(2, 2, look)
	if g.NodeEnv(1) != failed {
		t.Fatal("Reset replaced the deadlocked partition's environment")
	}
	p := &ping{g: g, a: 0, b: 1, hops: 3, from: 0}
	g.NodeEnv(0).At(0, p.hop, nil)
	if err := g.Run(); err != nil || len(p.times) != 3 {
		t.Fatalf("run after a failed one: %v, %d hops, want 3", err, len(p.times))
	}
}

// TestResetValidation pins the set-up contract: partitions and
// lookahead must be positive, and the worker count clamps to the
// partition count (extra workers could never have work).
func TestResetValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { newEngine(0, 1) },
		func() { (&Engine{}).Reset(2, 1, 0) },
		func() { (&Engine{}).Reset(2, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Reset did not panic")
				}
			}()
			bad()
		}()
	}
	g := newEngine(2, 16)
	if g.workers != 2 {
		t.Errorf("workers clamped to %d, want 2", g.workers)
	}
}

// boundOracle promises a fixed earliest-output time.
type boundOracle struct{ bound float64 }

func (o *boundOracle) EarliestOutputTime() float64 { return o.bound }

// TestAdaptiveWidensWindows drives two partitions whose processes wake
// repeatedly at sub-promise times without ever posting cross-partition
// mail before a known bound, and checks the engine executes the whole
// stretch in one widened window (latency-floor windows would need 22)
// plus the window that delivers the closing mail.
func TestAdaptiveWidensWindows(t *testing.T) {
	const wakes = 20
	g := newEngine(2, 2)
	for i := 0; i < 2; i++ {
		i := i
		// Each partition promises nothing can leave before the last
		// wake; the wakes themselves are 10 lookaheads apart, so a
		// latency-floor window would cover only one of them.
		g.NodeEnv(i).SetOutputOracle(&boundOracle{bound: wakes * 10 * look})
		g.NodeEnv(i).Spawn("ticker", func(p *sim.Proc) {
			for k := 0; k < wakes; k++ {
				p.Wait(10 * look)
			}
			g.Post(i, 1-i, p.Now()+look, func(any) {}, nil)
		})
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Windows != 2 || st.AdaptiveWindows != 1 {
		t.Errorf("%d windows (%d widened), want 2 (1 widened)", st.Windows, st.AdaptiveWindows)
	}
	if st.Mail != 2 {
		t.Errorf("%d mail merged, want 2", st.Mail)
	}
	if st.Narrowest < look {
		t.Errorf("narrowest window %g below lookahead %g", st.Narrowest, look)
	}
}

// TestAdaptiveFallsBackWithoutPromise checks an engine whose partitions
// never register an oracle keeps every window at the latency floor:
// EarliestOutput degrades to the next event time, so no window widens.
func TestAdaptiveFallsBackWithoutPromise(t *testing.T) {
	g := newEngine(2, 2)
	p := &ping{g: g, a: 0, b: 1, hops: 5, from: 0}
	g.NodeEnv(0).At(0, p.hop, nil)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.AdaptiveWindows != 0 {
		t.Errorf("oracle-less run widened %d windows", st.AdaptiveWindows)
	}
	for i, tm := range p.times {
		if want := float64(i) * look; tm != want {
			t.Errorf("hop %d at %v, want %v", i, tm, want)
		}
	}
}

// TestPostInsideWindowFails breaks the conservative contract on purpose:
// a partition promises a late earliest output, then posts mail at its
// own clock, inside the window that promise opened. The destination
// stops short of the mail's time, so the mail would be delivered without
// complaint, out of window order; Run must instead fail and name the
// partition, also when the partitions run on worker goroutines.
func TestPostInsideWindowFails(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := newEngine(2, workers)
		for i := 0; i < 2; i++ {
			g.NodeEnv(i).SetOutputOracle(&boundOracle{bound: 100 * look})
		}
		g.NodeEnv(1).Spawn("short", func(p *sim.Proc) { p.Wait(5 * look) })
		g.NodeEnv(0).Spawn("liar", func(p *sim.Proc) {
			p.Wait(10 * look)
			g.Post(0, 1, p.Now(), func(any) {}, nil)
		})
		err := g.Run()
		if err == nil {
			t.Fatalf("workers=%d: mail inside the window was accepted", workers)
		}
		if !strings.Contains(err.Error(), "partition 0") {
			t.Errorf("workers=%d: error %q does not name the posting partition", workers, err)
		}
		if st := g.Stats(); st.Mail != 0 {
			t.Errorf("workers=%d: %d mail merged after the broken contract", workers, st.Mail)
		}
	}
}

// TestEngineReuse runs the same workload on one engine repeatedly,
// alternating worker and partition counts, and checks no state leaks
// between runs: every run delivers its own mail, reports its own work
// counts, and leaves its partition environments rewound.
func TestEngineReuse(t *testing.T) {
	var total atomic.Int64
	g := &Engine{}
	run := func(nodes, workers int) int64 {
		g.Reset(nodes, workers, look)
		start := total.Load()
		for i := 0; i < nodes; i++ {
			i := i
			g.NodeEnv(i).Spawn("w", func(p *sim.Proc) {
				p.Wait(look / 2)
				g.Post(i, (i+1)%nodes, p.Now()+look, func(any) { total.Add(1) }, nil)
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		// Per partition: one start, one wait, one mail delivery.
		if c, want := g.Counters(), int64(3*nodes); c.Events != want {
			t.Fatalf("nodes=%d workers=%d: %d events, want %d", nodes, workers, c.Events, want)
		}
		for i := 0; i < nodes; i++ {
			if e := g.NodeEnv(i); e.Now() != 0 || e.Counters() != (sim.Counters{}) {
				t.Fatalf("partition %d not rewound after the run: now=%v", i, e.Now())
			}
		}
		return total.Load() - start
	}
	for i, tc := range []struct{ nodes, workers int }{{3, 1}, {3, 3}, {2, 1}, {4, 2}, {3, 3}} {
		if n := run(tc.nodes, tc.workers); n != int64(tc.nodes) {
			t.Fatalf("iteration %d (%+v): %d deliveries, want %d", i, tc, n, tc.nodes)
		}
	}
}

// TestNarrowWindowsRunInline pins the dispatch rule on two synthetic
// partitions that are both active in two windows, the second ten
// lookaheads after the first. The first window always goes to the
// workers. The second follows it to the workers only when the first ran
// at least dispatchMinSwitches process switches; after a tiny first
// window it runs inline on the coordinator. A single worker never
// dispatches.
func TestNarrowWindowsRunInline(t *testing.T) {
	run := func(workers, waits int) Stats {
		g := newEngine(2, workers)
		for i := 0; i < 2; i++ {
			// Each wait is one process switch inside the first window.
			g.NodeEnv(i).Spawn("busy", func(p *sim.Proc) {
				for k := 0; k < waits; k++ {
					p.Wait(look / 100)
				}
			})
			g.NodeEnv(i).At(10*look, func(any) {}, nil)
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g.Stats()
	}
	for _, tc := range []struct {
		name                string
		workers, waits      int
		windows, dispatched int64
	}{
		{"tiny first window", 2, 1, 2, 1},
		{"large first window", 2, dispatchMinSwitches, 2, 2},
		{"one worker", 1, dispatchMinSwitches, 2, 0},
	} {
		st := run(tc.workers, tc.waits)
		if st.Windows != tc.windows || st.Dispatched != tc.dispatched {
			t.Errorf("%s: %d windows, %d dispatched; want %d, %d",
				tc.name, st.Windows, st.Dispatched, tc.windows, tc.dispatched)
		}
	}
}
