package figures

import (
	"fmt"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/report"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// table1Inputs holds the key workload parameters of Table 1 (tiny, small)
// as presentation strings; the operative values live in each kernel's
// config.
var table1Inputs = map[string][2]string{
	"lbm":        {"lattice 4096x16384, 600 iters", "lattice 12000x48000, 500 iters"},
	"soma":       {"14e6 polymers, 200 steps", "25e6 polymers, 400 steps"},
	"tealeaf":    {"8192^2 cells, CG 1e-15, 100 steps x 350 PPCG", "16384^2 cells, CG 1e-15, 100 steps x 350 PPCG"},
	"cloverleaf": {"15360^2 mesh, 400 steps", "61440x30720 mesh, 500 steps"},
	"minisweep":  {"96x64x64, 64 groups, 32 angles, 40 sweeps", "128x64x64, 64 groups, 32 angles, 80 sweeps"},
	"pot3d":      {"nr=173 nt=361 np=1171, PCG", "nr=325 nt=450 np=2050, PCG"},
	"sph-exa":    {"210^3 particles, 80 steps", "350^3 particles, 100 steps"},
	"hpgmgfv":    {"512^3 grid (boxes 32^3), 300 steps", "1024^3 grid (boxes 32^3), 300 steps"},
	"weather":    {"24000x3000 grid, 600 steps", "192000x1250 grid, 600 steps"},
}

// Table1 reproduces the benchmark-attribute table.
func Table1(ctx *Context) error {
	t := report.NewTable("Table 1: SPEChpc 2021 benchmark attributes",
		"ID", "Name", "Language", "LOC", "Collective", "Tiny input", "Small input")
	for _, b := range bench.All() {
		in := table1Inputs[b.Name]
		t.AddRow(fmt.Sprintf("%02d", b.ID), b.Name, b.Language,
			fmt.Sprintf("%d", b.LOC), b.Collective, in[0], in[1])
	}
	return ctx.emitTable(t, "table1.csv")
}

// Table2 reproduces the numerics/domain table.
func Table2(ctx *Context) error {
	t := report.NewTable("Table 2: numerics and application domains",
		"Name", "Numerical brief information", "Application domain")
	for _, b := range bench.All() {
		t.AddRow(b.Name, b.Numerics, b.Domain)
	}
	return ctx.emitTable(t, "table2.csv")
}

// Table3 reproduces the hardware/software attribute table from the
// registered machine presets of the context.
func Table3(ctx *Context) error {
	clusters, err := ctx.planner().Clusters(nil)
	if err != nil {
		return err
	}
	cols := []string{"Attribute"}
	for _, cs := range clusters {
		cols = append(cols, cs.Name)
	}
	t := report.NewTable("Table 3: key hardware attributes", cols...)
	row := func(name string, f func(*machine.ClusterSpec) string) {
		cells := []string{name}
		for _, cs := range clusters {
			cells = append(cells, f(cs))
		}
		t.AddRow(cells...)
	}
	row("Processor", func(c *machine.ClusterSpec) string { return c.CPU.Name })
	row("Base clock", func(c *machine.ClusterSpec) string {
		return fmt.Sprintf("%.1f GHz", c.CPU.BaseClockHz/1e9)
	})
	row("Physical cores per node", func(c *machine.ClusterSpec) string {
		return fmt.Sprintf("%d", c.CPU.CoresPerNode())
	})
	row("ccNUMA domains per node", func(c *machine.ClusterSpec) string {
		return fmt.Sprintf("%d", c.CPU.DomainsPerNode())
	})
	row("Sockets per node", func(c *machine.ClusterSpec) string {
		return fmt.Sprintf("%d", c.CPU.SocketsPerNode)
	})
	row("Per-core L1/L2", func(c *machine.ClusterSpec) string {
		return fmt.Sprintf("%s / %s", units.Bytes(c.CPU.L1PerCore), units.Bytes(c.CPU.L2PerCore))
	})
	row("L3 per ccNUMA domain", func(c *machine.ClusterSpec) string {
		return units.Bytes(c.CPU.L3PerDomain)
	})
	row("Theor. memory BW per domain", func(c *machine.ClusterSpec) string {
		return units.Bandwidth(c.CPU.MemTheoreticalPerDomain)
	})
	row("Saturated memory BW per domain", func(c *machine.ClusterSpec) string {
		return units.Bandwidth(c.CPU.MemSaturatedPerDomain)
	})
	row("Node DP peak", func(c *machine.ClusterSpec) string {
		return units.FlopRate(c.CPU.NodePeakFlops())
	})
	row("TDP per socket", func(c *machine.ClusterSpec) string {
		return units.Power(c.CPU.TDPPerSocket)
	})
	row("Baseline power per socket", func(c *machine.ClusterSpec) string {
		return units.Power(c.CPU.BasePowerPerSocket)
	})
	row("Interconnect", func(c *machine.ClusterSpec) string { return "HDR100 InfiniBand fat-tree" })
	row("Nodes used", func(c *machine.ClusterSpec) string { return fmt.Sprintf("%d", c.MaxNodes) })
	return ctx.emitTable(t, "table3.csv")
}
