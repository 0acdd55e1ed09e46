package scenario

import (
	"github.com/spechpc/spechpc-sim/internal/analysis"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// Metric is one derived quantity the generic renderer can plot per sweep
// point. Relative metrics (speedup) are computed against the first point
// of each series instead of per result.
type Metric struct {
	// Name is the identifier used in scenario files.
	Name string
	// Label is the human axis/plot label.
	Label string
	// Get derives the value of one result; nil for relative metrics.
	Get func(spec.RunResult) float64
	// Relative marks series-relative metrics (first point = baseline).
	Relative bool
}

// metricTable lists every metric in display order. Names are stable: they
// appear in user scenario files.
var metricTable = []Metric{
	{Name: "speedup", Label: "speedup (first-point baseline)", Relative: true},
	{Name: "wall_s", Label: "wall time [s]",
		Get: func(r spec.RunResult) float64 { return r.Usage.Wall }},
	{Name: "perf_gflops", Label: "performance [Gflop/s]",
		Get: func(r spec.RunResult) float64 { return r.Usage.PerfFlops() / 1e9 }},
	{Name: "simd_pct", Label: "vectorization ratio [%]",
		Get: func(r spec.RunResult) float64 { return 100 * r.Usage.SIMDRatio() }},
	{Name: "membw_gbs", Label: "memory bandwidth [GB/s]",
		Get: func(r spec.RunResult) float64 { return r.Usage.MemBandwidth() / 1e9 }},
	{Name: "pernode_membw_gbs", Label: "per-node memory bandwidth [GB/s]",
		Get: func(r spec.RunResult) float64 {
			return r.Usage.MemBandwidth() / 1e9 / float64(r.Usage.Nodes)
		}},
	{Name: "memvol_gb", Label: "memory data volume [GB]",
		Get: func(r spec.RunResult) float64 { return r.Usage.BytesMem / 1e9 }},
	{Name: "chip_w", Label: "chip power [W]",
		Get: func(r spec.RunResult) float64 { return r.Usage.ChipPower() }},
	{Name: "dram_w", Label: "DRAM power [W]",
		Get: func(r spec.RunResult) float64 { return r.Usage.DRAMPower() }},
	{Name: "power_w", Label: "total power [W]",
		Get: func(r spec.RunResult) float64 { return r.Usage.TotalPower() }},
	{Name: "energy_j", Label: "total energy [J]",
		Get: func(r spec.RunResult) float64 { return r.Usage.TotalEnergy() }},
	{Name: "energy_per_gflop_j", Label: "energy per Gflop [J]",
		Get: func(r spec.RunResult) float64 {
			if f := r.Usage.Flops(); f > 0 {
				return r.Usage.TotalEnergy() / f * 1e9
			}
			return 0
		}},
	{Name: "edp_js", Label: "energy-delay product [Js]",
		Get: func(r spec.RunResult) float64 { return r.Usage.EDP() }},
	{Name: "mpi_pct", Label: "MPI time share [%]",
		Get: func(r spec.RunResult) float64 { return 100 * r.Usage.MPIFraction() }},
}

// DefaultMetrics is the generic renderer's selection when a sweep names
// none.
var DefaultMetrics = []string{"speedup", "wall_s", "membw_gbs", "energy_j"}

// MetricByName resolves a metric identifier.
func MetricByName(name string) (Metric, bool) {
	for _, m := range metricTable {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// MetricNames returns every known metric identifier in display order.
func MetricNames() []string {
	out := make([]string, len(metricTable))
	for i, m := range metricTable {
		out[i] = m.Name
	}
	return out
}

// metricValues derives a metric series from sweep results.
func metricValues(m Metric, results []spec.RunResult) []float64 {
	if m.Relative {
		return analysis.Speedup(analysis.Points(results))
	}
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = m.Get(r)
	}
	return out
}
