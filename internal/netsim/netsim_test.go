package netsim

import (
	"math"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

func TestSpecValidate(t *testing.T) {
	if err := HDR100().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := HDR100()
	bad.LinkBandwidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth not rejected")
	}
}

// TestLatencyFloor pins the conservative lookahead across fabric
// variants: the floor is exactly the inter-node latency — intra-node
// latency, bandwidth, and eager tuning never shrink or widen the
// parallel engine's window — and fabrics without a positive inter-node
// latency are rejected rather than given an unusable zero floor.
func TestLatencyFloor(t *testing.T) {
	hdr200 := HDR100()
	hdr200.Name = "HDR200 InfiniBand fat-tree"
	hdr200.LinkBandwidth *= 2
	slowWire := HDR100()
	slowWire.InterNodeLatency = 10e-6
	tightIntra := HDR100()
	tightIntra.IntraNodeLatency = 1e-12 // intra-node latency is not the floor
	eagerOff := HDR100()
	eagerOff.EagerThreshold = 0
	zeroLat := HDR100()
	zeroLat.InterNodeLatency = 0
	negLat := HDR100()
	negLat.InterNodeLatency = -1e-6
	cases := []struct {
		name    string
		spec    Spec
		want    float64
		wantErr bool
	}{
		{"HDR100", HDR100(), 1.6e-6, false},
		{"HDR200 double bandwidth", hdr200, 1.6e-6, false},
		{"slow wire", slowWire, 10e-6, false},
		{"tiny intra-node latency", tightIntra, 1.6e-6, false},
		{"eager disabled", eagerOff, 1.6e-6, false},
		{"zero inter-node latency", zeroLat, 0, true},
		{"negative inter-node latency", negLat, 0, true},
	}
	for _, c := range cases {
		got, err := c.spec.LatencyFloor()
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: no error for fabric without a lookahead window", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s: floor %v, want %v", c.name, got, c.want)
		}
	}
}

// newNet returns a serial HDR100 network of the given node count on e.
func newNet(e *sim.Env, nodes int) *Network {
	n := &Network{}
	n.Reinit(sim.UniRouter{E: e}, HDR100(), nodes)
	return n
}

// xfer is one transfer started at time zero.
type xfer struct {
	src, dst int
	bytes    float64
}

// arrivals starts every transfer at time zero on a serial network of
// the given node count, runs it, and returns the time at which each
// transfer's completion callback fired (-1 if it never did).
func arrivals(t *testing.T, nodes int, xs ...xfer) []float64 {
	t.Helper()
	e := sim.NewEnv()
	n := newNet(e, nodes)
	got := make([]float64, len(xs))
	for i, x := range xs {
		got[i] = -1
		n.StartTransfer(x.src, x.dst, x.bytes, func(a any) { got[a.(int)] = e.Now() }, i)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// The expected times below follow the cut-through rule documented on
// StartTransfer: an inter-node transfer arrives at
// max(injection done + InterNodeLatency, ejection done), where the
// injection flow starts at the call on the source NIC and the ejection
// flow starts one InterNodeLatency later on the destination NIC. Both
// NICs run at LinkBandwidth = 12.5 GB/s, so 12.5 GB alone on a NIC takes
// 1 s. Intra-node transfers are one shared-memory flow of twice the bytes
// and pay no latency here (MPI charges it per protocol).

// wantAll fails unless every arrival equals want to within 1e-9 s.
func wantAll(t *testing.T, got []float64, want float64) {
	t.Helper()
	for i, g := range got {
		if math.Abs(g-want) > 1e-9 {
			t.Fatalf("transfer %d arrived at %.12g, want %.12g (all arrivals %v)", i, g, want, got)
		}
	}
}

func TestLatencySelection(t *testing.T) {
	n := newNet(sim.NewEnv(), 2)
	if n.Latency(0, 0) != HDR100().IntraNodeLatency {
		t.Error("intra-node latency wrong")
	}
	if n.Latency(0, 1) != HDR100().InterNodeLatency {
		t.Error("inter-node latency wrong")
	}
}

func TestEagerThreshold(t *testing.T) {
	n := newNet(sim.NewEnv(), 1)
	if !n.Eager(1024) {
		t.Error("1 KiB message should be eager")
	}
	if n.Eager(1 * units.MiB) {
		t.Error("1 MiB message should be rendezvous")
	}
}

func TestInterNodeWireTime(t *testing.T) {
	// 25 GB over 12.5 GB/s: injection done at 2 s; ejection runs alone
	// from L to L + 2 s. Arrival = max(2 + L, L + 2) = 2 s + L: the wire
	// time scales with the bytes, and latency is paid once.
	L := HDR100().InterNodeLatency
	wantAll(t, arrivals(t, 2, xfer{0, 1, 25 * units.G}), 2.0+L)
}

func TestIntraNodeTransferCostsTwoCopies(t *testing.T) {
	// Intra-node message: copy-in + copy-out = 2x bytes at the per-flow
	// shmem cap (10 GB/s): a 5 GB message is 10 GB of copies -> 1 s.
	wantAll(t, arrivals(t, 1, xfer{0, 0, 5 * units.G}), 1.0)
}

func TestInjectionContention(t *testing.T) {
	// Two transfers from node 0 to nodes 1 and 2 share node 0's
	// injection NIC at 6.25 GB/s each: both injections are done at 2 s.
	// Each ejection runs alone on its own NIC from L to L + 1 s. Arrival
	// = max(2 + L, L + 1) = 2 s + L for both.
	L := HDR100().InterNodeLatency
	wantAll(t, arrivals(t, 3, xfer{0, 1, 12.5 * units.G}, xfer{0, 2, 12.5 * units.G}), 2.0+L)
}

func TestEjectionContention(t *testing.T) {
	// Transfers from nodes 1 and 2 into node 0: each injection runs
	// alone and is done at 1 s, but both ejections start at L on node
	// 0's NIC and share it at 6.25 GB/s, so both are done at L + 2 s.
	// Arrival = max(1 + L, L + 2) = 2 s + L for both.
	L := HDR100().InterNodeLatency
	wantAll(t, arrivals(t, 3, xfer{1, 0, 12.5 * units.G}, xfer{2, 0, 12.5 * units.G}), 2.0+L)
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	// 0->1 and 2->3 share no NIC on a non-blocking fat-tree: each
	// injection is done at 1 s and each ejection at L + 1 s, so both
	// arrive at max(1 + L, L + 1) = 1 s + L, as if alone.
	L := HDR100().InterNodeLatency
	wantAll(t, arrivals(t, 4, xfer{0, 1, 12.5 * units.G}, xfer{2, 3, 12.5 * units.G}), 1.0+L)
}

func TestStartTransferAsyncCompletion(t *testing.T) {
	// Cut-through: injection takes 1.0 s of wire time, and the last byte
	// lands one propagation latency after it leaves the source — arrival
	// is 1.0 + InterNodeLatency, never earlier. This latency floor on
	// every destination-side effect is what the conservative-lookahead
	// window of internal/sim/psim relies on.
	e := sim.NewEnv()
	n := newNet(e, 2)
	want := 1.0 + HDR100().InterNodeLatency
	var arrived, resumed float64
	e.Spawn("driver", func(p *sim.Proc) {
		n.StartTransfer(0, 1, 12.5*units.G, func(any) { arrived = e.Now() }, nil)
		// The sender continues at once instead of blocking on the wire.
		p.Wait(0.1)
		resumed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(arrived-want) > 1e-9 {
		t.Fatalf("async arrival at %v, want %v", arrived, want)
	}
	if resumed != 0.1 {
		t.Fatalf("sender resumed at %v, want 0.1", resumed)
	}
}

func TestZeroByteTransferInstant(t *testing.T) {
	// A zero-byte transfer moves no wire bytes: within a node its
	// callback fires at once, and across nodes it arrives after the
	// latency alone, since no flow delays either leg.
	L := HDR100().InterNodeLatency
	got := arrivals(t, 2, xfer{0, 0, 0}, xfer{0, 1, 0})
	if got[0] != 0 || got[1] != L {
		t.Fatalf("zero-byte arrivals = %v, want [0 %v]", got, L)
	}
}
