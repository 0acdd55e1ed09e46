package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickCtx returns a context writing to a buffer and a temp dir.
func quickCtx(t *testing.T) (*Context, *strings.Builder, string) {
	t.Helper()
	dir := t.TempDir()
	ctx := NewContext(dir, true)
	var sb strings.Builder
	ctx.W = &sb
	return ctx, &sb, dir
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if len(seen) != 14 {
		t.Errorf("got %d experiments, want 14", len(seen))
	}
}

// TestFigEnergyClock checks the frequency study produces the Z-plot-style
// curves, the per-clock tables, and the energy-optimal summary with the
// expected memory-bound vs compute-bound contrast.
func TestFigEnergyClock(t *testing.T) {
	ctx, sb, dir := quickCtx(t)
	if err := FigEnergyClock(ctx); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"wall time vs energy across the clock ladder",
		"energy-optimal operating points",
		"memory-bound", "compute-bound",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frequency study output missing %q", want)
		}
	}
	for _, f := range []string{
		"figclock_zplot_ClusterA.csv", "figclock_zplot_ClusterB.csv",
		"figclock_points_ClusterA.csv", "figclock_points_ClusterB.csv",
		"figclock_optimal.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestTables(t *testing.T) {
	ctx, sb, dir := quickCtx(t)
	for _, f := range []func(*Context) error{Table1, Table2, Table3} {
		if err := f(ctx); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{"lbm", "weather", "Ice Lake", "Sapphire Rapids", "ccNUMA"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
	for _, f := range []string{"table1.csv", "table2.csv", "table3.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
}

func TestTextTables(t *testing.T) {
	ctx, sb, dir := quickCtx(t)
	if err := TextEfficiency(ctx); err != nil {
		t.Fatal(err)
	}
	// TextAcceleration draws from the same node sweeps TextEfficiency
	// already paid for; the campaign memo must serve it without any
	// fresh simulation.
	afterEff := ctx.Scheduler.Stats()
	if err := TextAcceleration(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Scheduler.Stats(); got.Misses != afterEff.Misses {
		t.Errorf("TextAcceleration re-simulated node sweeps: misses %d -> %d",
			afterEff.Misses, got.Misses)
	}
	if err := TextSIMD(ctx); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "parallel efficiency") || !strings.Contains(out, "acceleration factor") {
		t.Errorf("text tables incomplete:\n%s", out)
	}
	for _, f := range []string{"text_efficiency.csv", "text_acceleration.csv", "text_simd.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s", f)
		}
	}
}

func TestFig1Artifacts(t *testing.T) {
	ctx, sb, dir := quickCtx(t)
	if err := Fig1(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup vs MPI processes") {
		t.Error("fig1 plot missing")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "fig1_*.csv"))
	if len(files) < 6 {
		t.Errorf("fig1 produced %d CSVs, want >= 6", len(files))
	}
}

func TestFig2IncludesInsets(t *testing.T) {
	ctx, sb, _ := quickCtx(t)
	if err := Fig2(ctx); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "minisweep at 59 processes") {
		t.Error("minisweep inset missing")
	}
	if !strings.Contains(out, "lbm at 71 processes") {
		t.Error("lbm inset missing")
	}
}

func TestFig3And4(t *testing.T) {
	ctx, sb, dir := quickCtx(t)
	if err := Fig3(ctx); err != nil {
		t.Fatal(err)
	}
	if err := Fig4(ctx); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "zero-core baseline") {
		t.Error("baseline extrapolation missing")
	}
	if !strings.Contains(out, "Z-plot") {
		t.Error("Z-plot missing")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "fig*_*.csv"))
	if len(files) < 8 {
		t.Errorf("fig3/4 produced %d CSVs", len(files))
	}
}

// TestFig5CasesFig6 also pins the campaign-cache guarantee: Fig5 pays
// for the multi-node sweeps once, and TextCases and Fig6 are then served
// entirely from the memo — each (benchmark, cluster, class, ranks) job
// simulates at most once per process.
func TestFig5CasesFig6(t *testing.T) {
	ctx, sb, dir := quickCtx(t)
	if err := Fig5(ctx); err != nil {
		t.Fatal(err)
	}
	after5 := ctx.Scheduler.Stats()
	if after5.Misses == 0 {
		t.Fatal("Fig5 simulated nothing")
	}
	if err := TextCases(ctx); err != nil {
		t.Fatal(err)
	}
	if err := Fig6(ctx); err != nil {
		t.Fatal(err)
	}
	final := ctx.Scheduler.Stats()
	if final.Misses != after5.Misses {
		t.Errorf("TextCases/Fig6 re-simulated jobs: misses %d -> %d",
			after5.Misses, final.Misses)
	}
	if final.Hits <= after5.Hits {
		t.Errorf("no cache hits recorded across experiments: %+v", final)
	}
	out := sb.String()
	if !strings.Contains(out, "scaling cases") || !strings.Contains(out, "total power") {
		t.Errorf("fig5/cases/fig6 output incomplete")
	}
	for _, f := range []string{"fig5_speedup_ClusterA.csv", "text_cases.csv", "fig6_power_ClusterB.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s", f)
		}
	}
}
