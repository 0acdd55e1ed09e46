// Package spechpcsim_test is the benchmark harness that regenerates every
// table and figure of the paper (one testing.B benchmark per artifact)
// plus ablation benches for the design choices DESIGN.md calls out.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Headline quantities are attached via b.ReportMetric, so the -bench
// output doubles as a compact paper-vs-measured summary; the full series
// (CSV + plots) come from cmd/figures.
package spechpcsim_test

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/figures"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// quietCtx returns a figures context that renders nowhere (benchmarks
// measure the regeneration work itself).
func quietCtx() *figures.Context {
	ctx := figures.NewContext("", true)
	ctx.W = io.Discard
	return ctx
}

// runExperiment benches one figures experiment.
func runExperiment(b *testing.B, fn func(*figures.Context) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(quietCtx()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Workloads(b *testing.B) { runExperiment(b, figures.Table1) }
func BenchmarkTable2Numerics(b *testing.B)  { runExperiment(b, figures.Table2) }
func BenchmarkTable3Machines(b *testing.B)  { runExperiment(b, figures.Table3) }
func BenchmarkFig1NodeScaling(b *testing.B) { runExperiment(b, figures.Fig1) }
func BenchmarkFig2Bandwidth(b *testing.B)   { runExperiment(b, figures.Fig2) }
func BenchmarkFig3Power(b *testing.B)       { runExperiment(b, figures.Fig3) }
func BenchmarkFig4Energy(b *testing.B)      { runExperiment(b, figures.Fig4) }
func BenchmarkFig5MultiNode(b *testing.B)   { runExperiment(b, figures.Fig5) }

// BenchmarkFig5MultiNodeJob measures one Fig.5-class multi-node job —
// lbm/small across all sixteen ClusterA nodes — on the serial engine
// and on the conservative-lookahead partitioned engine (internal/
// sim/psim) at rising worker counts. Outputs are byte-identical at
// every worker count (pinned by TestParallelEngineParity), so the
// sub-benchmarks measure pure execution strategy: scripts/
// bench_compare.sh workers turns them into a scaling table, and the CI
// psim gate asserts workers=8 beats serial with benchgate -assert.
// Speedup has two components: smaller per-partition event heaps (an
// algorithmic win visible even single-threaded) and true parallelism
// across host cores (needs GOMAXPROCS > 1).
func BenchmarkFig5MultiNodeJob(b *testing.B) {
	runMultiNodeJob(b, fig5Job())
}

// fig5Job is the Fig.5-class job: lbm/small across all sixteen ClusterA
// nodes.
func fig5Job() spec.RunSpec {
	cs := machine.MustGet("ClusterA")
	return spec.RunSpec{
		Benchmark: "lbm", Class: bench.Small,
		Cluster: cs, Ranks: cs.MaxNodes * cs.CPU.CoresPerNode(),
		Options: bench.Options{SimSteps: 1},
	}
}

// BenchmarkPot3dMultiNodeJob is the compute-bound end of the kernel
// spectrum: pot3d's memory-bound PCG phases between collectives, as the
// counterpart to lbm's communication-heavy profile in the worker
// scaling table (scripts/bench_compare.sh workers).
func BenchmarkPot3dMultiNodeJob(b *testing.B) {
	cs := machine.MustGet("ClusterA")
	rs := spec.RunSpec{
		Benchmark: "pot3d", Class: bench.Small,
		Cluster: cs, Ranks: cs.MaxNodes * cs.CPU.CoresPerNode(),
		Options: bench.Options{SimSteps: 1},
	}
	runMultiNodeJob(b, rs)
}

// BenchmarkMinisweepMultiNodeJob is the wavefront end of the spectrum:
// minisweep's rendezvous chain runs ~61k latency-floor windows of a few
// process switches each on four ClusterA nodes, so the partitioned
// engine runs nearly all of them inline on the coordinator
// (TestWavefrontWindowsRunInline). The worker scaling table reports it
// for information; no speedup gate applies.
func BenchmarkMinisweepMultiNodeJob(b *testing.B) {
	runMultiNodeJob(b, minisweepJob())
}

// minisweepJob is minisweep/small on four whole ClusterA nodes, a
// multi-node job of the multinode-cold workload.
func minisweepJob() spec.RunSpec {
	cs := machine.MustGet("ClusterA")
	return spec.RunSpec{
		Benchmark: "minisweep", Class: bench.Small,
		Cluster: cs, Ranks: 4 * cs.CPU.CoresPerNode(),
		Options: bench.Options{SimSteps: 1},
	}
}

// BenchmarkSPHExaNodeJob is sph-exa/tiny on one full ClusterB node (104
// ranks, one step): the costliest job of the Figs. 1-4 node sweeps, and
// almost all of its host time is the ranks' own SPH density and force
// passes. Run with -benchmem: its B/op is the sph-exa buffer budget.
func BenchmarkSPHExaNodeJob(b *testing.B) {
	cs := machine.MustGet("ClusterB")
	rs := spec.RunSpec{
		Benchmark: "sph-exa", Class: bench.Tiny,
		Cluster: cs, Ranks: cs.CPU.CoresPerNode(),
		Options: bench.Options{SimSteps: 1},
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := spec.Run(rs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWavefrontWindowsRunInline pins the dispatch rule on the wavefront
// job with deterministic counters: at two workers nearly every one of
// its narrow windows must run inline on the coordinator, and the result
// must equal the serial engine's.
func TestWavefrontWindowsRunInline(t *testing.T) {
	const maxDispatched = 8
	rs := minisweepJob()
	serial, err := spec.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	rs.SimWorkers = 2
	res, err := spec.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Psim.Windows == 0 {
		t.Fatal("job did not run on the partitioned engine")
	}
	if res.Psim.Dispatched > maxDispatched {
		t.Errorf("%d of %d windows dispatched to workers, ceiling %d",
			res.Psim.Dispatched, res.Psim.Windows, maxDispatched)
	}
	if !reflect.DeepEqual(res.Usage, serial.Usage) {
		t.Errorf("partitioned usage %+v, serial usage %+v", res.Usage, serial.Usage)
	}
}

// TestFig5JobDispatchFloor is the other side of the dispatch rule: the
// Fig. 5 lbm job does its work in wide windows, and a rule that ran
// them all inline would silently serialize it. It must keep handing at
// least a floor of windows to the workers.
func TestFig5JobDispatchFloor(t *testing.T) {
	const minDispatched = 50
	rs := fig5Job()
	rs.SimWorkers = 2
	res, err := spec.Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Psim.Dispatched < minDispatched {
		t.Errorf("%d of %d windows dispatched to workers, floor %d",
			res.Psim.Dispatched, res.Psim.Windows, minDispatched)
	}
}

// computeHeavyJob is the regime the earliest-output window targets: an
// under-populated cluster (eight ranks per node, standard practice for
// bandwidth-bound codes) running long compute stretches whose ranks
// drain memory/L3 flows at core-staggered rates. Every node carries the
// same byte-class multiset, so each interior flow-completion cluster
// lands on all sixteen partitions at once; latency-floor windows would
// pay a full multi-partition barrier for each (1,643 windows), while
// the oracle promises the phase end and swallows the whole stretch in
// one window. The config runs serially; set SimWorkers to partition it.
func computeHeavyJob() (mpi.Config, func(*mpi.Rank)) {
	cs := *machine.MustGet("ClusterA")
	cs.CPU.CoresPerSocket = 4
	cs.CPU.DomainsPerSocket = 1
	cpn := cs.CPU.CoresPerNode()
	body := func(r *mpi.Rank) {
		for step := 0; step < 2; step++ {
			for iter := 0; iter < 48; iter++ {
				r.Compute(machine.Phase{
					Name:        "stencil",
					FlopsScalar: 50 * units.M,
					BytesMem:    units.M * float64(1+r.ID()%cpn),
					BytesL3:     units.M * float64(1+r.ID()%cpn),
				})
			}
			r.Allreduce([]float64{1}, 8, mpi.OpSum)
		}
	}
	return mpi.Config{Cluster: &cs, Ranks: cs.MaxNodes * cpn}, body
}

// TestComputeHeavyWindowCeiling pins the window collapse on
// computeHeavyJob with deterministic counters instead of a timing gate:
// the partitioned run must stay at or under its window ceiling, merge
// exactly the job's cross-node mail, and reproduce the serial wall time.
// Lowering the ceiling is how a tighter earliest-output oracle shows.
func TestComputeHeavyWindowCeiling(t *testing.T) {
	const maxWindows, wantMail = 107, 3072
	cfg, body := computeHeavyJob()
	serial, err := mpi.Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SimWorkers = 8
	res, err := mpi.Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partitioned {
		t.Fatal("job did not run on the partitioned engine")
	}
	if res.Psim.Windows > maxWindows {
		t.Errorf("%d windows, ceiling %d", res.Psim.Windows, maxWindows)
	}
	if res.Psim.Mail != wantMail {
		t.Errorf("%d mail merged, want %d", res.Psim.Mail, wantMail)
	}
	if res.Wall != serial.Wall {
		t.Errorf("partitioned wall %v, serial wall %v", res.Wall, serial.Wall)
	}
}

// BenchmarkComputeHeavyMultiNodeJob measures computeHeavyJob on the
// serial engine and the partitioned engine at rising worker counts;
// TestComputeHeavyWindowCeiling pins its window count.
func BenchmarkComputeHeavyMultiNodeJob(b *testing.B) {
	cfg, body := computeHeavyJob()
	for _, w := range []int{0, 2, 4, 8} {
		name := "serial"
		if w > 0 {
			name = fmt.Sprintf("workers=%d", w)
		}
		b.Run(name, func(b *testing.B) {
			cfg := cfg
			cfg.SimWorkers = w
			for i := 0; i < b.N; i++ {
				if _, err := mpi.Run(cfg, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runMultiNodeJob emits the shared sub-benchmark ladder: the serial
// engine and the partitioned engine at rising worker counts.
func runMultiNodeJob(b *testing.B, rs spec.RunSpec) {
	for _, w := range []int{0, 2, 4, 8} {
		name := "serial"
		if w > 0 {
			name = fmt.Sprintf("workers=%d", w)
		}
		b.Run(name, func(b *testing.B) {
			job := rs
			job.SimWorkers = w
			for i := 0; i < b.N; i++ {
				if _, err := spec.Run(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
func BenchmarkFig6PowerEnergy(b *testing.B)  { runExperiment(b, figures.Fig6) }
func BenchmarkTextScalingCases(b *testing.B) { runExperiment(b, figures.TextCases) }

// BenchmarkTextEfficiency regenerates the Sect. 4.1.1 efficiency table
// and reports lbm's superlinear ClusterA value (paper: 130%).
func BenchmarkTextEfficiency(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		a := machine.ClusterA()
		results, err := spec.Sweep(spec.RunSpec{
			Benchmark: "lbm", Class: bench.Tiny, Cluster: a,
			Options: bench.Options{SimSteps: 1},
		}, []int{18, 72})
		if err != nil {
			b.Fatal(err)
		}
		eff, err = analysis.DomainEfficiency(analysis.Points(results), 18, 72)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eff, "lbm-effA-%(paper:130)")
}

// BenchmarkTextAcceleration reports the weather B/A factor (paper: 2.03).
func BenchmarkTextAcceleration(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ra, err := spec.Run(spec.RunSpec{
			Benchmark: "weather", Class: bench.Tiny,
			Cluster: machine.ClusterA(), Ranks: 72,
			Options: bench.Options{SimSteps: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		rb, err := spec.Run(spec.RunSpec{
			Benchmark: "weather", Class: bench.Tiny,
			Cluster: machine.ClusterB(), Ranks: 104,
			Options: bench.Options{SimSteps: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		ratio = analysis.AccelerationFactor(ra.Usage.Wall, rb.Usage.Wall)
	}
	b.ReportMetric(ratio, "weather-B/A(paper:2.03)")
}

// BenchmarkTextSIMD reports pot3d's vectorization ratio (paper: 99.9%).
func BenchmarkTextSIMD(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := spec.Run(spec.RunSpec{
			Benchmark: "pot3d", Class: bench.Tiny,
			Cluster: machine.ClusterA(), Ranks: 4,
			Options: bench.Options{SimSteps: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		ratio = 100 * res.Usage.SIMDRatio()
	}
	b.ReportMetric(ratio, "pot3d-simd-%(paper:99.9)")
}

// BenchmarkFig2Timelines reproduces the minisweep serialization inset and
// reports the global MPI_Recv share at 59 ranks (paper: ~75%).
func BenchmarkFig2Timelines(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := spec.Run(spec.RunSpec{
			Benchmark: "minisweep", Class: bench.Tiny,
			Cluster: machine.ClusterA(), Ranks: 59,
			Options: bench.Options{SimSteps: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		share = 100 * res.Trace.GlobalFraction(trace.KindRecv)
	}
	b.ReportMetric(share, "recv-share-%(paper:75)")
}

// BenchmarkAblationSweepChain isolates the root cause of minisweep's
// Sect. 4.1.5 pathology: per-rank throughput at 59 ranks (a degenerate
// 1x59 wavefront chain) against 64 ranks (an 8x8 grid). The eager
// threshold is also swept to show the effect is the data-dependency
// chain, not the transfer protocol: all-eager transport barely helps.
func BenchmarkAblationSweepChain(b *testing.B) {
	var chainPenalty, eagerGain float64
	for i := 0; i < b.N; i++ {
		run := func(ranks int, net netsim.Spec) float64 {
			res, err := spec.Run(spec.RunSpec{
				Benchmark: "minisweep", Class: bench.Tiny,
				Cluster: machine.ClusterA(), Ranks: ranks,
				Options: bench.Options{SimSteps: 1},
				Net:     net,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Usage.Wall
		}
		wall59 := run(59, netsim.Spec{})
		wall64 := run(64, netsim.Spec{})
		chainPenalty = wall59 / wall64
		eagerNet := netsim.HDR100()
		eagerNet.EagerThreshold = 1 << 40 // everything eager
		eagerGain = wall59 / run(59, eagerNet)
	}
	b.ReportMetric(chainPenalty, "chain-slowdown-59v64(paper:~4)")
	b.ReportMetric(eagerGain, "all-eager-speedup(~1)")
}

// BenchmarkAblationCacheModel removes the cache hierarchy (tiny L2/L3):
// weather's superlinear multi-node scaling on ClusterB must collapse to
// sublinear, isolating the cache-fit model as its cause (Case A).
func BenchmarkAblationCacheModel(b *testing.B) {
	var withCache, without float64
	for i := 0; i < b.N; i++ {
		run := func(cs *machine.ClusterSpec) float64 {
			r2, err := spec.Run(spec.RunSpec{
				Benchmark: "weather", Class: bench.Small, Cluster: cs,
				Ranks: 208, Options: bench.Options{SimSteps: 2},
			})
			if err != nil {
				b.Fatal(err)
			}
			r8, err := spec.Run(spec.RunSpec{
				Benchmark: "weather", Class: bench.Small, Cluster: cs,
				Ranks: 832, Options: bench.Options{SimSteps: 2},
			})
			if err != nil {
				b.Fatal(err)
			}
			return r2.Usage.Wall / r8.Usage.Wall // ideal = 4.0
		}
		withCache = run(machine.ClusterB())
		flat := machine.ClusterB()
		flat.CPU.L2PerCore = 64 * units.KiB
		flat.CPU.L3PerDomain = 256 * units.KiB
		without = run(flat)
	}
	b.ReportMetric(withCache, "speedup-with-cache(ideal:4)")
	b.ReportMetric(without, "speedup-without-cache")
}

// BenchmarkAblationBandwidthSharing removes the per-core memory bandwidth
// cap: a single core then saturates the whole domain, flattening
// tealeaf's in-domain speedup to ~1 — isolating the processor-sharing
// saturation model.
func BenchmarkAblationBandwidthSharing(b *testing.B) {
	var normal, uncapped float64
	for i := 0; i < b.N; i++ {
		run := func(cs *machine.ClusterSpec) float64 {
			r1, err := spec.Run(spec.RunSpec{
				Benchmark: "tealeaf", Class: bench.Tiny, Cluster: cs,
				Ranks: 1, Options: bench.Options{SimSteps: 4},
			})
			if err != nil {
				b.Fatal(err)
			}
			r18, err := spec.Run(spec.RunSpec{
				Benchmark: "tealeaf", Class: bench.Tiny, Cluster: cs,
				Ranks: 18, Options: bench.Options{SimSteps: 4},
			})
			if err != nil {
				b.Fatal(err)
			}
			return r1.Usage.Wall / r18.Usage.Wall
		}
		normal = run(machine.ClusterA())
		flat := machine.ClusterA()
		flat.CPU.MemPerCoreMax = flat.CPU.MemSaturatedPerDomain
		uncapped = run(flat)
	}
	// With the cap, speedup saturates at ~domain-bw/core-bw (~6, the
	// paper's saturation knee); without it a single core is limited only
	// by its in-core rate and the curve loses the saturation shape.
	b.ReportMetric(normal, "domain-speedup-capped(knee~6)")
	b.ReportMetric(uncapped, "domain-speedup-uncapped")
}

// BenchmarkAblationIdlePower resets the baseline power to the
// Sandy-Bridge-era 20% of TDP. On the modern baseline (~40% of TDP),
// concurrency throttling below the full domain saves almost no energy
// (the paper's race-to-idle conclusion); on the old baseline the same
// throttling saves substantially more.
func BenchmarkAblationIdlePower(b *testing.B) {
	var modernSave, oldSave float64
	for i := 0; i < b.N; i++ {
		// Savings of the best sub-domain operating point relative to the
		// full ccNUMA domain, in percent of the full-domain energy.
		throttleSavings := func(cs *machine.ClusterSpec) float64 {
			results, err := spec.Sweep(spec.RunSpec{
				Benchmark: "pot3d", Class: bench.Tiny, Cluster: cs,
				Options: bench.Options{SimSteps: 4},
			}, []int{1, 2, 4, 6, 9, 12, 18})
			if err != nil {
				b.Fatal(err)
			}
			z := analysis.ZPlot(analysis.Points(results))
			full := z[len(z)-1].Energy
			best := z[analysis.MinEnergyPoint(z)].Energy
			return 100 * (full - best) / full
		}
		modernSave = throttleSavings(machine.ClusterA())
		old := machine.ClusterA()
		old.CPU.BasePowerPerSocket = 0.2 * old.CPU.TDPPerSocket
		oldSave = throttleSavings(old)
	}
	b.ReportMetric(modernSave, "throttle-saving-%-modern(minor)")
	b.ReportMetric(oldSave, "throttle-saving-%-20pct-idle")
}
