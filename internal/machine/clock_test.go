package machine

import (
	"math"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/dvfs"
)

// TestWithClockDerivesPeaks checks that a derived cluster re-derives its
// in-core peaks from the new clock while uncore and memory stay flat.
func TestWithClockDerivesPeaks(t *testing.T) {
	a := MustGet("ClusterA")
	d, err := a.withClock(1.2e9)
	if err != nil {
		t.Fatal(err)
	}
	if d.CPU.BaseClockHz != 1.2e9 {
		t.Fatalf("derived clock %g, want 1.2e9", d.CPU.BaseClockHz)
	}
	ratio := 1.2e9 / a.CPU.BaseClockHz
	if got, want := d.CPU.SIMDPeakPerCore(), a.CPU.SIMDPeakPerCore()*ratio; math.Abs(got-want) > 1 {
		t.Errorf("SIMD peak %g, want %g (scales with clock)", got, want)
	}
	if got, want := d.CPU.L2BandwidthPerCore, a.CPU.L2BandwidthPerCore*ratio; math.Abs(got-want) > 1 {
		t.Errorf("L2 bandwidth %g, want %g (core-clocked)", got, want)
	}
	// Uncore, memory, baseline and DRAM power are frequency independent.
	if d.CPU.MemSaturatedPerDomain != a.CPU.MemSaturatedPerDomain {
		t.Error("memory bandwidth moved with clock")
	}
	if d.CPU.L3BandwidthPerDomain != a.CPU.L3BandwidthPerDomain {
		t.Error("L3 domain bandwidth moved with clock")
	}
	if d.CPU.BasePowerPerSocket != a.CPU.BasePowerPerSocket {
		t.Error("baseline power moved with clock")
	}
	if d.CPU.DRAMEnergyPerByte != a.CPU.DRAMEnergyPerByte {
		t.Error("DRAM energy per byte moved with clock")
	}
	// Dynamic core power follows f*V(f)^2: strictly below linear scaling.
	if d.CPU.CoreDynMaxPower >= a.CPU.CoreDynMaxPower*ratio {
		t.Errorf("core dynamic power %g not below linear %g",
			d.CPU.CoreDynMaxPower, a.CPU.CoreDynMaxPower*ratio)
	}
	// The original spec is untouched.
	if a.CPU.BaseClockHz != MustGet("ClusterA").CPU.BaseClockHz {
		t.Error("withClock mutated its receiver")
	}
}

// TestWithClockComposes checks derivation is exact under composition:
// re-deriving a derived spec back to a clock equals deriving it directly.
func TestWithClockComposes(t *testing.T) {
	a := MustGet("ClusterA")
	direct, err := a.withClock(2.0e9)
	if err != nil {
		t.Fatal(err)
	}
	low, err := a.withClock(1.0e9)
	if err != nil {
		t.Fatal(err)
	}
	indirect, err := low.withClock(2.0e9)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	if rel(indirect.CPU.CoreDynMaxPower, direct.CPU.CoreDynMaxPower) > tol ||
		rel(indirect.CPU.CoreStallPower, direct.CPU.CoreStallPower) > tol ||
		rel(indirect.CPU.CoreMPIPower, direct.CPU.CoreMPIPower) > tol ||
		rel(indirect.CPU.L2BandwidthPerCore, direct.CPU.L2BandwidthPerCore) > tol {
		t.Errorf("composed derivation differs from direct:\n%+v\nvs\n%+v",
			indirect.CPU, direct.CPU)
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestWithClockRejects covers the error paths: out-of-ladder clocks and
// clusters without a DVFS model.
func TestWithClockRejects(t *testing.T) {
	a := MustGet("ClusterA")
	for _, hz := range []float64{0.1e9, 5e9} {
		if _, err := a.withClock(hz); err == nil {
			t.Errorf("clock %g Hz outside ladder accepted", hz)
		}
	}
	// Quantization snaps off-step requests onto the ladder.
	d, err := a.withClock(1.234e9)
	if err != nil {
		t.Fatal(err)
	}
	if d.CPU.BaseClockHz != 1.2e9 {
		t.Errorf("off-step clock quantized to %g, want 1.2e9", d.CPU.BaseClockHz)
	}

	pinned := MustGet("ClusterB")
	pinned.CPU.DVFS = dvfs.Model{}
	if _, err := pinned.withClock(1.5e9); err == nil {
		t.Error("cluster without DVFS accepted a clock change")
	}
	same, err := pinned.withClock(pinned.CPU.BaseClockHz)
	if err != nil {
		t.Errorf("pinned cluster rejected its own base clock: %v", err)
	} else if same.CPU.BaseClockHz != pinned.CPU.BaseClockHz {
		t.Error("identity derivation changed the clock")
	}
}

// TestWithClockShared pins the memoization contract: repeated requests
// (including off-step requests snapping to the same ladder point) share
// one derived spec identical to a fresh withClock derivation, and error
// paths behave exactly like the uncached derivation.
func TestWithClockShared(t *testing.T) {
	a := MustGet("ClusterA")
	d1, err := a.WithClock(1.6e9)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.WithClock(1.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("repeated WithClock returned distinct derivations")
	}
	// An off-step request snapping to the same ladder point shares the
	// same memo entry.
	d3, err := a.WithClock(1.61e9)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Error("snapped request did not share the ladder point's memo entry")
	}
	fresh, err := a.withClock(1.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if *fresh != *d1 {
		t.Error("cached derivation differs from a fresh withClock")
	}
	// A cluster with the same hardware but a different identity (or a
	// mutated copy) must not collide with the cached entry.
	b := MustGet("ClusterA")
	b.CPU.L2PerCore *= 2
	m1, err := b.WithClock(1.6e9)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == d1 {
		t.Error("mutated cluster shared the unmutated cluster's memo entry")
	}
	if _, err := a.WithClock(9e9); err == nil {
		t.Error("out-of-range clock accepted by cached path")
	}
	pinned := MustGet("ClusterB")
	pinned.CPU.DVFS = dvfs.Model{}
	if _, err := pinned.WithClock(1.5e9); err == nil {
		t.Error("cluster without DVFS accepted a clock change via cache")
	}
}
