package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// keyVersion names the canonical encoding generation. It is part of every
// job key, so bumping it invalidates all previously persisted results at
// once — do that whenever the encoding below, the simulation semantics of
// an encoded field, or the persisted Record schema changes incompatibly.
const keyVersion = "spechpc-job/v2"

// Canonical returns the canonical plain-text encoding of a job: one
// versioned header line followed by one key=value line per field of the
// spec, in a fixed order, with floats rendered at full round-trip
// precision. Two specs describing the same simulation produce identical
// encodings; any field that changes the simulation changes the encoding
// (pinned by a reflection test walking every field of RunSpec).
//
// The clock override is quantized onto the cluster's DVFS ladder before
// encoding — that is the clock the run executes at — so requests snapping
// to the same ladder step share one identity while every distinct ladder
// point keys independently.
//
// Canonical exists for debugging and golden tests; cache lookups use the
// fixed-length hash from Key.
func Canonical(rs spec.RunSpec) string {
	var b strings.Builder
	b.Grow(1024)
	wr := func(k, v string) {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
		b.WriteByte('\n')
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := strconv.Itoa
	t := strconv.FormatBool

	var cl machine.ClusterSpec
	if rs.Cluster != nil {
		cl = *rs.Cluster
	}
	hz := rs.ClockHz
	// Quantize only requests the run itself would snap: Quantize clamps
	// out-of-range clocks onto the ladder endpoints, but spec.Run rejects
	// them, so an invalid-clock job must key (and memoize its error)
	// separately from the legitimate endpoint job.
	if d := cl.CPU.DVFS; hz > 0 && d.Enabled() && hz >= d.MinHz && hz <= d.MaxHz {
		hz = d.Quantize(hz)
	}

	b.WriteString(keyVersion)
	b.WriteByte('\n')
	wr("bench", rs.Benchmark)
	wr("class", d(int(rs.Class)))
	wr("ranks", d(rs.Ranks))
	wr("clock_hz", f(hz))
	wr("opt.sim_steps", d(rs.Options.SimSteps))
	wr("opt.scale_div", d(rs.Options.ScaleDiv))
	wr("keep_trace", t(rs.KeepTrace))

	n := rs.Net
	wr("net.name", n.Name)
	wr("net.intra_latency", f(n.IntraNodeLatency))
	wr("net.inter_latency", f(n.InterNodeLatency))
	wr("net.link_bw", f(n.LinkBandwidth))
	wr("net.shmem_bw", f(n.ShmemBandwidthPerNode))
	wr("net.shmem_flow_max", f(n.ShmemPerFlowMax))
	wr("net.eager_threshold", f(n.EagerThreshold))
	wr("net.send_overhead", f(n.SendOverhead))
	wr("net.recv_overhead", f(n.RecvOverhead))

	wr("cluster.name", cl.Name)
	wr("cluster.max_nodes", d(cl.MaxNodes))
	c := cl.CPU
	wr("cpu.name", c.Name)
	wr("cpu.base_clock_hz", f(c.BaseClockHz))
	wr("cpu.cores_per_socket", d(c.CoresPerSocket))
	wr("cpu.sockets_per_node", d(c.SocketsPerNode))
	wr("cpu.domains_per_socket", d(c.DomainsPerSocket))
	wr("cpu.simd_flops_per_cycle", f(c.SIMDFlopsPerCycle))
	wr("cpu.scalar_flops_per_cycle", f(c.ScalarFlopsPerCycle))
	wr("cpu.irregular_access_eff", f(c.IrregularAccessEff))
	wr("cpu.l1_per_core", f(c.L1PerCore))
	wr("cpu.l2_per_core", f(c.L2PerCore))
	wr("cpu.l3_per_domain", f(c.L3PerDomain))
	wr("cpu.l2_bw_per_core", f(c.L2BandwidthPerCore))
	wr("cpu.l3_bw_per_domain", f(c.L3BandwidthPerDomain))
	wr("cpu.l3_bw_per_core_max", f(c.L3BandwidthPerCoreMax))
	wr("cpu.mem_theoretical_per_domain", f(c.MemTheoreticalPerDomain))
	wr("cpu.mem_saturated_per_domain", f(c.MemSaturatedPerDomain))
	wr("cpu.mem_per_core_max", f(c.MemPerCoreMax))
	wr("cpu.tdp_per_socket", f(c.TDPPerSocket))
	wr("cpu.tdp_cap_fraction", f(c.TDPCapFraction))
	wr("cpu.base_power_per_socket", f(c.BasePowerPerSocket))
	wr("cpu.core_dyn_max_power", f(c.CoreDynMaxPower))
	wr("cpu.core_stall_power", f(c.CoreStallPower))
	wr("cpu.core_mpi_power", f(c.CoreMPIPower))
	wr("cpu.dram_idle_per_domain", f(c.DRAMIdlePerDomain))
	wr("cpu.dram_energy_per_byte", f(c.DRAMEnergyPerByte))
	v := c.DVFS
	wr("dvfs.min_hz", f(v.MinHz))
	wr("dvfs.max_hz", f(v.MaxHz))
	wr("dvfs.step_hz", f(v.StepHz))
	wr("dvfs.ref_hz", f(v.RefHz))
	wr("dvfs.v_min", f(v.VMin))
	wr("dvfs.v_max", f(v.VMax))
	return b.String()
}

// Key returns the canonical identity of a job: a versioned, fixed-length
// content hash of the Canonical encoding. Two specs with equal keys
// describe the same simulation and may share a memoized or persisted
// result. The cluster is keyed by value, not by pointer, so two
// independently resolved (or mutated) ClusterSpec instances only collide
// when they describe identical hardware; the ladder-quantized clock
// override is part of the key, so every distinct frequency point memoizes
// independently while requests snapping to the same ladder step share one
// simulation. The key doubles as the file name in the on-disk Store, so
// its format must stay stable across processes and machines.
func Key(rs spec.RunSpec) string {
	sum := sha256.Sum256([]byte(Canonical(rs)))
	return "v1-" + hex.EncodeToString(sum[:])
}

// jobDesc renders a job's identity for error messages: benchmark, class,
// cluster (with the clock override when present), and rank count.
func jobDesc(rs spec.RunSpec) string {
	cluster := "<nil cluster>"
	if rs.Cluster != nil {
		cluster = rs.Cluster.Name
	}
	clock := ""
	if rs.ClockHz > 0 {
		clock = fmt.Sprintf(" at %g GHz", rs.ClockHz/1e9)
	}
	return fmt.Sprintf("%s/%v on %s%s with %d ranks",
		rs.Benchmark, rs.Class, cluster, clock, rs.Ranks)
}
