package machine

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/spechpc/spechpc-sim/internal/sim"
	"github.com/spechpc/spechpc-sim/internal/units"
)

func TestPresetsValidate(t *testing.T) {
	for _, cs := range All() {
		if err := cs.Validate(); err != nil {
			t.Errorf("%s: %v", cs.Name, err)
		}
	}
}

func TestClusterGeometry(t *testing.T) {
	a := ClusterA()
	if got := a.CPU.CoresPerNode(); got != 72 {
		t.Errorf("ClusterA cores/node = %d, want 72", got)
	}
	if got := a.CPU.DomainsPerNode(); got != 4 {
		t.Errorf("ClusterA domains/node = %d, want 4", got)
	}
	if got := a.CPU.CoresPerDomain(); got != 18 {
		t.Errorf("ClusterA cores/domain = %d, want 18", got)
	}
	b := ClusterB()
	if got := b.CPU.CoresPerNode(); got != 104 {
		t.Errorf("ClusterB cores/node = %d, want 104", got)
	}
	if got := b.CPU.DomainsPerNode(); got != 8 {
		t.Errorf("ClusterB domains/node = %d, want 8", got)
	}
	if got := b.CPU.CoresPerDomain(); got != 13 {
		t.Errorf("ClusterB cores/domain = %d, want 13", got)
	}
}

func TestPeakRatiosMatchPaper(t *testing.T) {
	// Sect. 4.1.2: "comparing ClusterB with ClusterA the ratio of peak
	// performance and memory bandwidth is 1.2 and 1.5 respectively".
	a, b := ClusterA(), ClusterB()
	peakRatio := b.CPU.NodePeakFlops() / a.CPU.NodePeakFlops()
	if math.Abs(peakRatio-1.2) > 0.02 {
		t.Errorf("node peak ratio B/A = %.3f, want ~1.20", peakRatio)
	}
	bwRatio := (b.CPU.MemTheoreticalPerDomain * float64(b.CPU.DomainsPerNode())) /
		(a.CPU.MemTheoreticalPerDomain * float64(a.CPU.DomainsPerNode()))
	if math.Abs(bwRatio-1.5) > 0.02 {
		t.Errorf("node theoretical bandwidth ratio B/A = %.3f, want ~1.50", bwRatio)
	}
}

func TestPlacementBlockMapping(t *testing.T) {
	a := ClusterA()
	cases := []struct {
		rank                                   int
		node, socket, domain, gSocket, gDomain int
	}{
		{0, 0, 0, 0, 0, 0},
		{17, 0, 0, 0, 0, 0},
		{18, 0, 0, 1, 0, 1},
		{35, 0, 0, 1, 0, 1},
		{36, 0, 1, 2, 1, 2},
		{71, 0, 1, 3, 1, 3},
		{72, 1, 0, 0, 2, 4},
		{100, 1, 0, 1, 2, 5},
	}
	for _, c := range cases {
		p := a.Place(c.rank)
		if p.Node != c.node || p.Socket != c.socket || p.Domain != c.domain ||
			p.GlobalSocket != c.gSocket || p.GlobalDomain != c.gDomain {
			t.Errorf("Place(%d) = %+v, want node=%d socket=%d domain=%d gsock=%d gdom=%d",
				c.rank, p, c.node, c.socket, c.domain, c.gSocket, c.gDomain)
		}
	}
}

func TestPlacementPropertyConsistent(t *testing.T) {
	a, b := ClusterA(), ClusterB()
	f := func(r uint16) bool {
		for _, cs := range []*ClusterSpec{a, b} {
			rank := int(r) % cs.MaxRanks()
			p := cs.Place(rank)
			cpu := &cs.CPU
			if p.Core < 0 || p.Core >= cpu.CoresPerNode() {
				return false
			}
			if p.Domain != p.Core/cpu.CoresPerDomain() {
				return false
			}
			if p.Socket != p.Core/cpu.CoresPerSocket {
				return false
			}
			if p.GlobalDomain != p.Node*cpu.DomainsPerNode()+p.Domain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodesFor(t *testing.T) {
	a := ClusterA()
	for _, c := range []struct{ ranks, nodes int }{
		{1, 1}, {72, 1}, {73, 2}, {144, 2}, {1152, 16},
	} {
		if got := a.NodesFor(c.ranks); got != c.nodes {
			t.Errorf("NodesFor(%d) = %d, want %d", c.ranks, got, c.nodes)
		}
	}
}

// newSystem returns a serial System for n ranks of cs on env.
func newSystem(env *sim.Env, cs *ClusterSpec, n int) *System {
	sys := &System{}
	sys.Reinit(sim.UniRouter{E: env}, cs, n)
	return sys
}

// runPhases executes n ranks each running the same phase sequence and
// returns the usage.
func runPhases(t *testing.T, cs *ClusterSpec, n int, steps int, ph Phase) Usage {
	t.Helper()
	env := sim.NewEnv()
	sys := newSystem(env, cs, n)
	for r := 0; r < n; r++ {
		r := r
		env.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < steps; i++ {
				sys.Compute(p, r, ph)
			}
			sys.RankFinished(r, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return sys.Usage()
}

func TestComputeBoundPhaseTime(t *testing.T) {
	// Pure SIMD flops at full efficiency on one Ice Lake core:
	// 76.8 Gflop/s peak -> 76.8e9 flops take 1 s.
	a := ClusterA()
	u := runPhases(t, a, 1, 1, Phase{FlopsSIMD: 76.8e9})
	if math.Abs(u.Wall-1.0) > 1e-9 {
		t.Fatalf("wall = %v, want 1.0", u.Wall)
	}
	if math.Abs(u.PerfFlops()-76.8e9) > 1 {
		t.Fatalf("perf = %v, want 76.8e9", u.PerfFlops())
	}
}

func TestMemoryBoundPhaseSingleCore(t *testing.T) {
	// Pure memory traffic on one core: limited by MemPerCoreMax (13 GB/s).
	a := ClusterA()
	u := runPhases(t, a, 1, 1, Phase{BytesMem: 13e9})
	if math.Abs(u.Wall-1.0) > 1e-9 {
		t.Fatalf("wall = %v, want 1.0 (per-core cap)", u.Wall)
	}
}

func TestMemoryBandwidthSaturatesAcrossDomain(t *testing.T) {
	// 18 cores each demanding 13 GB/s = 234 GB/s demand against a 76.5
	// GB/s domain: bandwidth must saturate at the domain limit.
	a := ClusterA()
	u := runPhases(t, a, 18, 1, Phase{BytesMem: 10e9})
	bw := u.MemBandwidth()
	if math.Abs(bw-76.5*units.G) > 0.01*units.G {
		t.Fatalf("saturated bandwidth = %s, want 76.5 GB/s", units.Bandwidth(bw))
	}
}

func TestMemoryBoundSpeedupSaturates(t *testing.T) {
	// Memory-bound phases: speedup within a domain must flatten once the
	// domain bandwidth saturates (around 76.5/13 ~ 6 cores).
	a := ClusterA()
	const total = 72e9 // bytes, strong-scaled across ranks
	strong := func(n int) float64 {
		return runPhases(t, a, n, 1, Phase{BytesMem: total / float64(n)}).Wall
	}
	base := strong(1)
	s6 := base / strong(6)
	s18 := base / strong(18)
	if s6 < 5.0 {
		t.Errorf("speedup at 6 cores = %.2f, want near-linear (>5)", s6)
	}
	if s18 > 7.0 {
		t.Errorf("speedup at 18 cores = %.2f, want saturated (<7)", s18)
	}
	// Crossing into the second domain must add bandwidth again.
	s36 := base / strong(36)
	if s36 < 1.8*s18 {
		t.Errorf("two-domain speedup %.2f not ~2x one-domain %.2f", s36, s18)
	}
}

func TestComputeBoundScalesLinearly(t *testing.T) {
	a := ClusterA()
	ph := Phase{FlopsSIMD: 1e9}
	base := runPhases(t, a, 1, 1, ph)
	u72 := runPhases(t, a, 72, 1, ph)
	speedup := base.Wall / u72.Wall
	if math.Abs(speedup-1.0) > 1e-6 {
		// Each rank does the same work: wall time identical, aggregate
		// perf 72x.
		t.Fatalf("per-rank wall changed: speedup %v", speedup)
	}
	if r := u72.PerfFlops() / base.PerfFlops(); math.Abs(r-72) > 1e-6 {
		t.Fatalf("72-rank perf ratio = %v, want 72", r)
	}
}

func TestECMOverlapMaxRule(t *testing.T) {
	// A phase with 1 s of core work and 0.5 s of memory work must take
	// ~1 s (overlap), not 1.5 s.
	a := ClusterA()
	u := runPhases(t, a, 1, 1, Phase{FlopsSIMD: 76.8e9, BytesMem: 6.5e9})
	if u.Wall > 1.01 || u.Wall < 0.99 {
		t.Fatalf("overlapped phase wall = %v, want ~1.0", u.Wall)
	}
}

func TestCorePenaltySlowsExecution(t *testing.T) {
	a := ClusterA()
	u1 := runPhases(t, a, 1, 1, Phase{FlopsSIMD: 1e9})
	u2 := runPhases(t, a, 1, 1, Phase{FlopsSIMD: 1e9, CorePenalty: 1.5})
	r := u2.Wall / u1.Wall
	if math.Abs(r-1.5) > 1e-9 {
		t.Fatalf("penalty ratio = %v, want 1.5", r)
	}
}

func TestSIMDRatioReported(t *testing.T) {
	a := ClusterA()
	u := runPhases(t, a, 1, 1, Phase{FlopsSIMD: 95, FlopsScalar: 5})
	if math.Abs(u.SIMDRatio()-0.95) > 1e-12 {
		t.Fatalf("SIMD ratio = %v, want 0.95", u.SIMDRatio())
	}
}

func TestBaselinePowerDominatesIdle(t *testing.T) {
	// One rank busy on a 2-socket node: both sockets' baseline counts.
	a := ClusterA()
	u := runPhases(t, a, 1, 1, Phase{FlopsSIMD: 76.8e9, HeatFrac: 1})
	base := 2 * a.CPU.BasePowerPerSocket
	if u.ChipPower() < base {
		t.Fatalf("chip power %v below node baseline %v", u.ChipPower(), base)
	}
	if u.ChipPower() > base+a.CPU.CoreDynMaxPower+1 {
		t.Fatalf("chip power %v too far above baseline+1 core", u.ChipPower())
	}
}

func TestHotCodeApproachesTDP(t *testing.T) {
	// A full socket of maximally hot cores must clamp near the TDP cap
	// (sph-exa reaches 98% of 250 W on ClusterA).
	a := ClusterA()
	u := runPhases(t, a, 36, 1, Phase{FlopsSIMD: 1e9, HeatFrac: 1})
	p := u.SocketChipPower[0]
	want := a.CPU.TDPPerSocket * a.CPU.TDPCapFraction
	if math.Abs(p-want) > 1.0 {
		t.Fatalf("hot socket power = %.1f W, want clamp %.1f W", p, want)
	}
}

func TestDRAMPowerTracksBandwidth(t *testing.T) {
	// Saturated memory-bound domain on ClusterA: ~16 W DRAM (paper 4.2.1).
	a := ClusterA()
	u := runPhases(t, a, 18, 1, Phase{BytesMem: 10e9})
	p := u.DomainDRAMPower[0]
	if math.Abs(p-16.0) > 0.5 {
		t.Fatalf("saturated domain DRAM power = %.2f W, want ~16 W", p)
	}
	// A compute-bound run draws only idle DRAM power.
	u2 := runPhases(t, a, 18, 1, Phase{FlopsSIMD: 1e9})
	if u2.DomainDRAMPower[0] > a.CPU.DRAMIdlePerDomain+0.1 {
		t.Fatalf("compute-bound DRAM power = %.2f W, want ~idle", u2.DomainDRAMPower[0])
	}
}

func TestUsageScale(t *testing.T) {
	a := ClusterA()
	u := runPhases(t, a, 4, 2, Phase{FlopsSIMD: 1e9, BytesMem: 1e9})
	s := u.Scale(10)
	if math.Abs(s.Wall-10*u.Wall) > 1e-9 || math.Abs(s.Flops()-10*u.Flops()) > 1 {
		t.Fatal("Scale did not multiply extensive quantities")
	}
	if math.Abs(s.ChipPower()-u.ChipPower()) > 1e-6 {
		t.Fatal("Scale changed average power (intensive)")
	}
	if math.Abs(s.MemBandwidth()-u.MemBandwidth()) > 1e-3 {
		t.Fatal("Scale changed bandwidth (intensive)")
	}
}

// TestUsageScaleSharesNoBackingArrays pins that Scale deep-copies every
// slice field: the scaled copy and the receiver must stay independent
// when either is mutated (spec.Run keeps both the raw and the scaled
// record of one job, so aliasing would corrupt one through the other).
func TestUsageScaleSharesNoBackingArrays(t *testing.T) {
	a := ClusterA()
	u := runPhases(t, a, 4, 2, Phase{FlopsSIMD: 1e9, BytesMem: 1e9})
	s := u.Scale(10)

	check := func(name string, orig, scaled []float64) {
		t.Helper()
		if len(orig) == 0 || len(scaled) == 0 {
			t.Fatalf("%s: empty slice, test needs a populated usage", name)
		}
		before := orig[0]
		scaled[0] += 1234.5
		if orig[0] != before {
			t.Errorf("%s: mutating the scaled copy changed the original (shared backing array)", name)
		}
		scaled[0] -= 1234.5
	}
	check("SocketChipPower", u.SocketChipPower, s.SocketChipPower)
	check("DomainDRAMPower", u.DomainDRAMPower, s.DomainDRAMPower)
	check("DomainBytesMem", u.DomainBytesMem, s.DomainBytesMem)
}

func TestCacheFitMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		x := float64(a%1000) / 100.0
		y := float64(b%1000) / 100.0
		if x > y {
			x, y = y, x
		}
		c := 1.0
		return CacheFit(x, c) <= CacheFit(y, c)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheFitLimits(t *testing.T) {
	if got := CacheFit(0.1, 1); got != 0 {
		t.Errorf("small working set spill = %v, want 0", got)
	}
	if got := CacheFit(10, 1); got != 1 {
		t.Errorf("huge working set spill = %v, want 1", got)
	}
	if got := CacheFit(1, 0); got != 1 {
		t.Errorf("zero cache spill = %v, want 1", got)
	}
}

func TestPhaseAddAndScale(t *testing.T) {
	a := Phase{FlopsSIMD: 100, BytesMem: 50, SIMDEff: 0.5, HeatFrac: 1}
	b := Phase{FlopsScalar: 100, BytesL2: 30, SIMDEff: 1, HeatFrac: 0.5}
	c := a.Add(b)
	if c.FlopsSIMD != 100 || c.FlopsScalar != 100 || c.BytesMem != 50 || c.BytesL2 != 30 {
		t.Fatalf("Add lost quantities: %+v", c)
	}
	d := c.Scale(2)
	if d.FlopsSIMD != 200 || d.BytesL2 != 60 {
		t.Fatalf("Scale wrong: %+v", d)
	}
}

func TestMPIAccounting(t *testing.T) {
	a := ClusterA()
	env := sim.NewEnv()
	sys := newSystem(env, a, 1)
	env.Spawn("rank", func(p *sim.Proc) {
		sys.Compute(p, 0, Phase{FlopsSIMD: 76.8e9})
		start := p.Now()
		p.Wait(2) // pretend MPI wait
		sys.AccountMPI(0, p.Now()-start)
		sys.RankFinished(0, p.Now())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	u := sys.Usage()
	if math.Abs(u.TimeMPI-2) > 1e-9 {
		t.Fatalf("MPI time = %v, want 2", u.TimeMPI)
	}
	if u.MPIFraction() < 0.6 || u.MPIFraction() > 0.7 {
		t.Fatalf("MPI fraction = %v, want ~2/3", u.MPIFraction())
	}
}
