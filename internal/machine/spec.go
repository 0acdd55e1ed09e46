// Package machine models the hardware of the two clusters the paper
// studies: core micro-architecture throughput, the cache/memory hierarchy
// with ccNUMA bandwidth saturation, and the package/DRAM power model.
//
// The model follows an ECM/Roofline view of a compute phase: in-core time
// (scalar + SIMD flop streams at calibrated efficiencies, private L2
// traffic) overlaps with shared L3 and memory transfers served by
// processor-sharing resources per ccNUMA domain. The phase finishes when
// the slowest of these finishes — this single mechanism produces the
// bandwidth-saturation speedup curves of memory-bound kernels and the
// near-linear scaling of compute-bound ones.
//
// Power follows the paper's observations: a large per-socket baseline
// (~40% of TDP on Ice Lake, ~50% on Sapphire Rapids), a per-core dynamic
// term that depends on what the core is doing (executing, memory-stalled,
// busy-waiting in MPI), a package-level TDP clamp, and DRAM power tied
// linearly to the achieved memory bandwidth.
package machine

import (
	"fmt"
	"sync"

	"github.com/spechpc/spechpc-sim/internal/dvfs"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// CPUSpec describes one processor model and its node integration,
// mirroring the rows of Table 3 in the paper plus calibration parameters
// derived from the paper's own measurements (saturated domain bandwidth,
// baseline power, per-core dynamic power).
type CPUSpec struct {
	// Name is the marketing name, e.g. "Xeon Platinum 8360Y (Ice Lake)".
	Name string
	// BaseClockHz is the fixed core clock (the paper pins frequencies).
	BaseClockHz float64
	// CoresPerSocket is the physical core count per socket (no SMT).
	CoresPerSocket int
	// SocketsPerNode is the number of sockets per node.
	SocketsPerNode int
	// DomainsPerSocket is the number of ccNUMA domains per socket
	// (Sub-NUMA Clustering is enabled on both systems).
	DomainsPerSocket int

	// SIMDFlopsPerCycle is the peak DP flops per cycle per core using
	// AVX-512 FMA (2 FMA units x 8 lanes x 2 flops = 32 on both CPUs).
	SIMDFlopsPerCycle float64
	// ScalarFlopsPerCycle is the peak DP flops per cycle per core with
	// scalar FMA instructions.
	ScalarFlopsPerCycle float64
	// IrregularAccessEff is the relative in-core efficiency on
	// gather/irregular-access instruction streams (>= 1 means faster than
	// the reference). Sapphire Rapids' larger private caches and improved
	// gather hardware let such codes exceed the plain peak-performance
	// ratio — the effect the paper notes for sph-exa, minisweep, and soma
	// (Sect. 4.1.2).
	IrregularAccessEff float64

	// L1PerCore, L2PerCore are private cache capacities in bytes.
	L1PerCore float64
	L2PerCore float64
	// L3PerDomain is the shared last-level slice per ccNUMA domain, bytes.
	L3PerDomain float64

	// L2BandwidthPerCore is the sustained private L2 bandwidth per core (B/s).
	L2BandwidthPerCore float64
	// L3BandwidthPerDomain is the sustained shared L3 bandwidth per ccNUMA
	// domain (B/s), shared processor-style among cores of the domain.
	L3BandwidthPerDomain float64
	// L3BandwidthPerCoreMax caps the L3 bandwidth a single core can draw.
	L3BandwidthPerCoreMax float64

	// MemTheoreticalPerDomain is the nominal DDR bandwidth per domain (B/s).
	MemTheoreticalPerDomain float64
	// MemSaturatedPerDomain is the achievable (measured-style) bandwidth a
	// domain saturates at; the paper reports 75-78 GB/s on Ice Lake and
	// 58-62 GB/s on Sapphire Rapids domains.
	MemSaturatedPerDomain float64
	// MemPerCoreMax is the memory bandwidth a single core can draw (B/s);
	// it sets how many cores are needed to saturate a domain.
	MemPerCoreMax float64

	// TDPPerSocket is the thermal design power per socket (W).
	TDPPerSocket float64
	// TDPCapFraction clamps sustained package power to this fraction of
	// TDP (RAPL power capping); the paper's hottest code reaches 97-98%.
	TDPCapFraction float64
	// BasePowerPerSocket is the extrapolated zero-core package power (W).
	BasePowerPerSocket float64
	// CoreDynMaxPower is the per-core dynamic power of the hottest
	// fully-executing code (W).
	CoreDynMaxPower float64
	// CoreStallPower is per-core dynamic power while stalled on memory (W).
	CoreStallPower float64
	// CoreMPIPower is per-core dynamic power while busy-waiting in MPI (W).
	CoreMPIPower float64

	// DRAMIdlePerDomain is DRAM background power per domain (W).
	DRAMIdlePerDomain float64
	// DRAMEnergyPerByte converts memory traffic to DRAM dynamic energy
	// (J/B); equivalently watts per byte/s of sustained bandwidth.
	DRAMEnergyPerByte float64

	// DVFS describes the admissible clock ladder and how the per-core
	// dynamic power terms scale with frequency (see ClusterSpec.WithClock).
	// The zero value pins the part at BaseClockHz.
	DVFS dvfs.Model
}

// CoresPerNode returns the number of physical cores in one node.
func (c *CPUSpec) CoresPerNode() int { return c.CoresPerSocket * c.SocketsPerNode }

// DomainsPerNode returns the number of ccNUMA domains in one node.
func (c *CPUSpec) DomainsPerNode() int { return c.DomainsPerSocket * c.SocketsPerNode }

// CoresPerDomain returns the number of cores in one ccNUMA domain.
func (c *CPUSpec) CoresPerDomain() int { return c.CoresPerSocket / c.DomainsPerSocket }

// SIMDPeakPerCore returns peak DP AVX-512 flops/s of one core.
func (c *CPUSpec) SIMDPeakPerCore() float64 { return c.BaseClockHz * c.SIMDFlopsPerCycle }

// ScalarPeakPerCore returns peak DP scalar flops/s of one core.
func (c *CPUSpec) ScalarPeakPerCore() float64 { return c.BaseClockHz * c.ScalarFlopsPerCycle }

// NodePeakFlops returns the DP AVX-512 peak of a full node.
func (c *CPUSpec) NodePeakFlops() float64 {
	return c.SIMDPeakPerCore() * float64(c.CoresPerNode())
}

// ClusterSpec is a full cluster: homogeneous nodes of one CPUSpec plus the
// cluster size. Interconnect parameters live in package netsim and are
// composed with the machine model by the spec harness.
type ClusterSpec struct {
	// Name identifies the cluster ("ClusterA", "ClusterB").
	Name string
	// CPU is the node hardware description.
	CPU CPUSpec
	// MaxNodes is the number of nodes available to experiments.
	MaxNodes int
}

// MaxRanks returns the total number of cores across MaxNodes.
func (cs *ClusterSpec) MaxRanks() int { return cs.MaxNodes * cs.CPU.CoresPerNode() }

// NodesFor returns the number of nodes a block-mapped run of n ranks
// occupies (consecutive ranks on consecutive cores, likwid-mpirun style).
func (cs *ClusterSpec) NodesFor(n int) int {
	cpn := cs.CPU.CoresPerNode()
	return (n + cpn - 1) / cpn
}

// Placement locates one rank on the cluster under block mapping.
type Placement struct {
	// Node is the node index.
	Node int
	// Socket is the socket index within the node.
	Socket int
	// Domain is the ccNUMA domain index within the node.
	Domain int
	// Core is the core index within the node.
	Core int
	// GlobalSocket and GlobalDomain are cluster-wide indices.
	GlobalSocket int
	GlobalDomain int
}

// Place maps a rank to its core under block mapping: consecutive MPI ranks
// are pinned to consecutive cores, filling each node before the next.
func (cs *ClusterSpec) Place(rank int) Placement {
	cpu := &cs.CPU
	cpn := cpu.CoresPerNode()
	node := rank / cpn
	core := rank % cpn
	socket := core / cpu.CoresPerSocket
	domain := core / cpu.CoresPerDomain()
	return Placement{
		Node:         node,
		Socket:       socket,
		Domain:       domain,
		Core:         core,
		GlobalSocket: node*cpu.SocketsPerNode + socket,
		GlobalDomain: node*cpu.DomainsPerNode() + domain,
	}
}

// WithClock derives a copy of the cluster running at a different core
// clock. The requested frequency is snapped to the CPU's DVFS ladder and
// must lie within [MinHz, MaxHz]; clusters without a DVFS model reject
// every clock other than their pinned BaseClockHz.
//
// Scaling follows the dvfs model: BaseClockHz moves (so all in-core
// peaks — SIMD, scalar — re-derive with it), the private per-core L2
// bandwidth scales linearly (the L2 runs at core clock), and the three
// per-core dynamic power terms scale with f*V(f)^2. Everything served by
// the uncore or the memory subsystem — shared L3 bandwidth, saturated
// DRAM bandwidth, the socket power baseline, DRAM power — is held flat,
// which is what makes reduced clocks nearly free for memory-bound
// kernels. The derived spec is revalidated before it is returned.
func (cs *ClusterSpec) WithClock(hz float64) (*ClusterSpec, error) {
	cpu := &cs.CPU
	if !cpu.DVFS.Enabled() {
		if hz == cpu.BaseClockHz {
			out := *cs
			return &out, nil
		}
		return nil, fmt.Errorf("machine: %s has no DVFS model; clock pinned at %s",
			cs.Name, units.Frequency(cpu.BaseClockHz))
	}
	if hz < cpu.DVFS.MinHz || hz > cpu.DVFS.MaxHz {
		return nil, fmt.Errorf("machine: %s clock %s outside DVFS range [%s, %s]",
			cs.Name, units.Frequency(hz),
			units.Frequency(cpu.DVFS.MinHz), units.Frequency(cpu.DVFS.MaxHz))
	}
	q := cpu.DVFS.Quantize(hz)
	out := *cs
	c := &out.CPU
	// Power terms are stored at the current clock; rescaling by the
	// factor ratio keeps WithClock exact under composition
	// (a.WithClock(x).WithClock(y) == a.WithClock(y)).
	pf := c.DVFS.PowerFactor(q) / c.DVFS.PowerFactor(c.BaseClockHz)
	c.CoreDynMaxPower *= pf
	c.CoreStallPower *= pf
	c.CoreMPIPower *= pf
	c.L2BandwidthPerCore *= q / c.BaseClockHz
	c.BaseClockHz = q
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// clockKey identifies a WithClock derivation: the source cluster by
// value (ClusterSpec holds only scalars, so it is a valid map key) and
// the clock snapped onto its DVFS ladder.
type clockKey struct {
	spec ClusterSpec
	hz   float64
}

// clockCache memoizes WithClock derivations process-wide. Frequency
// sweeps submit one job per ladder point and campaigns re-submit the
// same points for every figure; deriving and revalidating the scaled
// spec once per (cluster, snapped clock) removes that per-job cost.
var clockCache sync.Map // clockKey -> *ClusterSpec

// WithClockCached is WithClock behind a process-wide memo keyed by
// (cluster value, ladder-snapped clock): requests snapping to the same
// ladder step share one derived spec, so each point validates once per
// process. The returned spec is shared — callers must treat it as
// immutable. Error paths (no DVFS model, clock out of range) are not
// cached and behave exactly like WithClock.
func (cs *ClusterSpec) WithClockCached(hz float64) (*ClusterSpec, error) {
	cpu := &cs.CPU
	if !cpu.DVFS.Enabled() || hz < cpu.DVFS.MinHz || hz > cpu.DVFS.MaxHz {
		return cs.WithClock(hz)
	}
	key := clockKey{spec: *cs, hz: cpu.DVFS.Quantize(hz)}
	if v, ok := clockCache.Load(key); ok {
		return v.(*ClusterSpec), nil
	}
	out, err := cs.WithClock(hz)
	if err != nil {
		return nil, err
	}
	if prev, loaded := clockCache.LoadOrStore(key, out); loaded {
		return prev.(*ClusterSpec), nil
	}
	return out, nil
}

// Validate checks internal consistency of the spec.
func (cs *ClusterSpec) Validate() error {
	c := &cs.CPU
	if err := c.DVFS.Validate(); err != nil {
		return fmt.Errorf("machine: %s: %w", cs.Name, err)
	}
	if c.DVFS.Enabled() &&
		(c.BaseClockHz < c.DVFS.MinHz || c.BaseClockHz > c.DVFS.MaxHz) {
		return fmt.Errorf("machine: %s clock %g Hz outside its own DVFS range", cs.Name, c.BaseClockHz)
	}
	switch {
	case c.CoresPerSocket <= 0 || c.SocketsPerNode <= 0 || c.DomainsPerSocket <= 0:
		return fmt.Errorf("machine: %s has non-positive core/socket/domain counts", cs.Name)
	case c.CoresPerSocket%c.DomainsPerSocket != 0:
		return fmt.Errorf("machine: %s cores per socket %d not divisible by domains %d",
			cs.Name, c.CoresPerSocket, c.DomainsPerSocket)
	case c.MemSaturatedPerDomain <= 0 || c.MemPerCoreMax <= 0:
		return fmt.Errorf("machine: %s has non-positive memory bandwidth", cs.Name)
	case c.MemSaturatedPerDomain > c.MemTheoreticalPerDomain:
		return fmt.Errorf("machine: %s saturated bandwidth exceeds theoretical", cs.Name)
	case c.BasePowerPerSocket >= c.TDPPerSocket:
		return fmt.Errorf("machine: %s baseline power above TDP", cs.Name)
	case cs.MaxNodes <= 0:
		return fmt.Errorf("machine: %s has no nodes", cs.Name)
	}
	return nil
}

// ClusterA returns the Ice Lake cluster of the paper: two Xeon Platinum
// 8360Y per node (36 cores each, SNC2 -> 4 ccNUMA domains of 18 cores),
// 8-channel DDR4-3200 per socket, HDR100 fat-tree.
//
// Calibration sources: Table 3 for the architectural numbers; Sect. 4.1.4
// for the 75-78 GB/s saturated domain bandwidth; Sect. 4.2.3 for the
// 95-101 W zero-core baseline; Sect. 4.2.1 for sph-exa at 244 W (98% TDP)
// and the 16 W saturated / 9.5 W minimum domain DRAM power.
func ClusterA() *ClusterSpec {
	return &ClusterSpec{
		Name: "ClusterA",
		CPU: CPUSpec{
			Name:                "Intel Xeon Platinum 8360Y (Ice Lake)",
			BaseClockHz:         2.4e9,
			CoresPerSocket:      36,
			SocketsPerNode:      2,
			DomainsPerSocket:    2,
			SIMDFlopsPerCycle:   32,
			ScalarFlopsPerCycle: 4,
			IrregularAccessEff:  1.0,
			L1PerCore:           48 * units.KiB,
			L2PerCore:           1.25 * units.MiB,
			L3PerDomain:         27 * units.MiB, // 54 MiB per socket, SNC2

			L2BandwidthPerCore:      100 * units.G,
			L3BandwidthPerDomain:    260 * units.G,
			L3BandwidthPerCoreMax:   42 * units.G,
			MemTheoreticalPerDomain: 102.4 * units.G,
			MemSaturatedPerDomain:   76.5 * units.G,
			MemPerCoreMax:           13 * units.G,

			TDPPerSocket:       250,
			TDPCapFraction:     0.976,
			BasePowerPerSocket: 98,
			CoreDynMaxPower:    4.5,
			CoreStallPower:     1.9,
			CoreMPIPower:       3.1,
			DRAMIdlePerDomain:  7.0,
			DRAMEnergyPerByte:  9.0 / (76.5 * units.G), // 16 W at saturation

			// Ice Lake exposes 100 MHz P-state steps from 800 MHz up to
			// the 2.4 GHz base clock the paper pins (Table 3); the power
			// calibration above was taken at that pinned clock.
			DVFS: dvfs.Model{
				MinHz:  0.8e9,
				MaxHz:  2.4e9,
				StepHz: 0.1e9,
				RefHz:  2.4e9,
				VMin:   0.70,
				VMax:   1.00,
			},
		},
		MaxNodes: 16,
	}
}

// ClusterB returns the Sapphire Rapids cluster of the paper: two Xeon
// Platinum 8470 per node (52 cores each, SNC4 -> 8 ccNUMA domains of 13
// cores), 8-channel DDR5-4800 per socket, HDR100 fat-tree.
//
// Calibration sources: Table 3; Sect. 4.1.4 for the 58-62 GB/s saturated
// domain bandwidth; Sect. 4.2.3 for the 176-181 W baseline; Sect. 4.2.1
// for sph-exa at 333 W (97% TDP) and the 10-13 W saturated / 5.5 W minimum
// domain DRAM power (DDR5 runs cooler than DDR4).
func ClusterB() *ClusterSpec {
	return &ClusterSpec{
		Name: "ClusterB",
		CPU: CPUSpec{
			Name:                "Intel Xeon Platinum 8470 (Sapphire Rapids)",
			BaseClockHz:         2.0e9,
			CoresPerSocket:      52,
			SocketsPerNode:      2,
			DomainsPerSocket:    4,
			SIMDFlopsPerCycle:   32,
			ScalarFlopsPerCycle: 4,
			IrregularAccessEff:  1.35,
			L1PerCore:           48 * units.KiB,
			L2PerCore:           2 * units.MiB,
			L3PerDomain:         26.25 * units.MiB, // 105 MiB per socket, SNC4

			L2BandwidthPerCore:      110 * units.G,
			L3BandwidthPerDomain:    300 * units.G,
			L3BandwidthPerCoreMax:   48 * units.G,
			MemTheoreticalPerDomain: 76.8 * units.G,
			MemSaturatedPerDomain:   60 * units.G,
			MemPerCoreMax:           11.5 * units.G,

			TDPPerSocket:       350,
			TDPCapFraction:     0.952,
			BasePowerPerSocket: 178,
			CoreDynMaxPower:    3.4,
			CoreStallPower:     1.5,
			CoreMPIPower:       2.3,
			DRAMIdlePerDomain:  3.8,
			DRAMEnergyPerByte:  7.0 / (60 * units.G), // ~10.8 W at saturation

			// Sapphire Rapids: 100 MHz steps from 800 MHz up to the
			// 2.0 GHz base clock the paper pins (Table 3); power constants
			// calibrated at the pinned clock.
			DVFS: dvfs.Model{
				MinHz:  0.8e9,
				MaxHz:  2.0e9,
				StepHz: 0.1e9,
				RefHz:  2.0e9,
				VMin:   0.72,
				VMax:   1.00,
			},
		},
		MaxNodes: 16,
	}
}
