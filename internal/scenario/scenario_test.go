package scenario

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite" // register all nine kernels
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/units"
)

// writeScenario drops a scenario document into a temp file.
func writeScenario(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "study.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sampleDoc = `
// A two-kernel strong-scaling study with a custom fabric.
{
  "name": "sample",
  "title": "sample study",
  "sweeps": [
    {
      "benchmarks": ["tealeaf", "lbm"],
      "clusters": ["ClusterA"],
      "class": "tiny",
      "points": [1, 2, 4],
      "sim_steps": 1,
      "metrics": ["wall_s", "speedup"],
      "net": {"name": "HDR200", "link_bandwidth_gbs": 25}
    },
    {
      "benchmarks": ["pot3d"],
      "clusters": ["A"],
      "class": "tiny",
      "points": "one-domain",
      "clocks": [1.2, 2.4],
      "sim_steps": 1,
      "metrics": ["energy_j"]
    }
  ],
  "jobs": [
    {"benchmark": "minisweep", "cluster": "ClusterA", "class": "tiny", "ranks": 3, "sim_steps": 1}
  ]
}
`

// TestLoadFile parses the sample document: comments, preset and list
// points, a clock axis, and a fabric override.
func TestLoadFile(t *testing.T) {
	sc, err := LoadFile(writeScenario(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "sample" || len(sc.Sweeps) != 2 || len(sc.Jobs) != 1 {
		t.Fatalf("parsed %+v", sc)
	}
	s0 := sc.Sweeps[0]
	if s0.Points.Kind != PointsList || !reflect.DeepEqual(s0.Points.List, []int{1, 2, 4}) {
		t.Errorf("sweep 1 points = %+v", s0.Points)
	}
	if s0.Net == nil || s0.Net.Name != "HDR200" || s0.Net.LinkBandwidth != 25*units.G {
		t.Errorf("sweep 1 net override = %+v", s0.Net)
	}
	if s0.Net.InterNodeLatency <= 0 {
		t.Error("net override lost the HDR100 defaults for unset fields")
	}
	s1 := sc.Sweeps[1]
	if s1.Points.Kind != PointsOneDomain || s1.Clocks.Active() != true ||
		!reflect.DeepEqual(s1.Clocks.GHz, []float64{1.2, 2.4}) {
		t.Errorf("sweep 2 axes = %+v / %+v", s1.Points, s1.Clocks)
	}
	if sc.Jobs[0].Benchmark != "minisweep" || sc.Jobs[0].Ranks != 3 {
		t.Errorf("job = %+v", sc.Jobs[0])
	}
}

// TestLoadRejects pins the loader's error behaviour: unknown keys,
// unknown metrics, unknown classes, clock sweeps over many rank points,
// and empty scenarios all fail loudly.
func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown key", `{"name":"x","sweeps":[{"class":"tiny","points":"node","typo_key":1}]}`, "typo_key"},
		{"unknown metric", `{"name":"x","sweeps":[{"class":"tiny","points":"node","metrics":["wat"]}]}`, "unknown metric"},
		{"unknown benchmark", `{"name":"x","sweeps":[{"class":"tiny","points":"node","benchmarks":["tealeafe"]}]}`, "unknown benchmark"},
		{"unknown job benchmark", `{"name":"x","jobs":[{"benchmark":"lbmm","cluster":"A","ranks":2}]}`, "unknown benchmark"},
		{"unknown class", `{"name":"x","sweeps":[{"class":"medium","points":"node"}]}`, "unknown class"},
		{"bad points", `{"name":"x","sweeps":[{"class":"tiny","points":"nodez"}]}`, "points kind"},
		{"multi-point clock sweep", `{"name":"x","sweeps":[{"class":"tiny","points":[1,2],"clocks":"ladder"}]}`, "single rank point"},
		{"empty", `{"name":"x"}`, "no sweeps and no jobs"},
		{"no points", `{"name":"x","sweeps":[{"class":"tiny"}]}`, "without points"},
		{"job without cluster", `{"name":"x","jobs":[{"benchmark":"lbm","ranks":2}]}`, "without cluster"},
		{"trailing content", `{"name":"x","sweeps":[{"class":"tiny","points":"node"}]} {"name":"y"}`, "trailing content"},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.doc), "x"); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestExpandDeterministic expands the sample scenario twice and checks
// the batches are identical, complete, and in cluster-major order.
func TestExpandDeterministic(t *testing.T) {
	sc, err := LoadFile(writeScenario(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	p := &Planner{Scheduler: campaign.NewScheduler(2, nil)}
	jobs, err := p.Expand(sc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.Expand(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Error("expansion is not deterministic")
	}
	// Sweep 1: 2 kernels x 3 points; sweep 2: 1 kernel x 1 point x 2
	// clocks; plus 1 pinned job.
	if want := 2*3 + 2 + 1; len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	first := jobs[0]
	if first.Benchmark != "tealeaf" || first.Ranks != 1 || first.Cluster.Name != "ClusterA" ||
		first.Net.Name != "HDR200" || first.Options.SimSteps != 1 {
		t.Errorf("first job = %+v", first)
	}
	clocked := jobs[6]
	if clocked.Benchmark != "pot3d" || clocked.ClockHz != 1.2e9 ||
		clocked.Ranks != machine.MustGet("ClusterA").CPU.CoresPerDomain() {
		t.Errorf("clock job = %+v", clocked)
	}
	last := jobs[len(jobs)-1]
	if last.Benchmark != "minisweep" || last.Ranks != 3 {
		t.Errorf("pinned job = %+v", last)
	}
}

// TestExpandAppliesQuickDefaults checks quick mode reduces preset axes
// and pins one simulated step, while explicit step counts win.
func TestExpandAppliesQuickDefaults(t *testing.T) {
	sc := &Scenario{Name: "q", Sweeps: []Sweep{{
		Benchmarks: []string{"tealeaf"},
		Clusters:   []string{"ClusterA"},
		Class:      bench.Tiny,
		Points:     Points{Kind: PointsMultiNode},
	}}}
	quick := &Planner{Quick: true}
	jobs, err := quick.Expand(sc)
	if err != nil {
		t.Fatal(err)
	}
	cpn := machine.MustGet("ClusterA").CPU.CoresPerNode()
	if len(jobs) != 3 || jobs[0].Ranks != cpn || jobs[0].Options.SimSteps != 1 {
		t.Errorf("quick multinode expansion = %d jobs, first %+v", len(jobs), jobs[0])
	}
	sc.Sweeps[0].SimSteps = 4
	jobs, err = quick.Expand(sc)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Options.SimSteps != 4 {
		t.Errorf("explicit sim_steps overridden: %+v", jobs[0].Options)
	}
	full := &Planner{}
	jobs, err = full.Expand(&Scenario{Name: "f", Sweeps: []Sweep{{
		Benchmarks: []string{"tealeaf"}, Clusters: []string{"ClusterA"},
		Class: bench.Tiny, Points: Points{Kind: PointsMultiNode},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) <= 3 || jobs[0].Options.SimSteps != 0 {
		t.Errorf("full multinode expansion = %d jobs, first opts %+v", len(jobs), jobs[0].Options)
	}
}

// TestExecuteGenericRenderer runs a small scenario end to end: plots on
// the writer, CSV artifacts on disk, one simulation per unique
// job, and a frequency sweep rendered over the clock axis.
func TestExecuteGenericRenderer(t *testing.T) {
	sc, err := LoadFile(writeScenario(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	var sb strings.Builder
	p := &Planner{Scheduler: campaign.NewScheduler(4, nil)}
	if err := p.Execute(sc, &sb, outDir); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"sample: ClusterA wall time [s] (tiny)",
		"sample: ClusterA speedup (first-point baseline) (tiny)",
		"sample: ClusterA total energy [J] (tiny)",
		"sample: pinned jobs",
		"minisweep",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, f := range []string{
		"sample_s1_wall_s_ClusterA.csv",
		"sample_s1_speedup_ClusterA.csv",
		"sample_s2_energy_j_ClusterA.csv",
		"sample_jobs.csv",
	} {
		if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	// The clock-axis CSV carries GHz x values.
	data, err := os.ReadFile(filepath.Join(outDir, "sample_s2_energy_j_ClusterA.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "clock_ghz,") {
		t.Errorf("clock sweep CSV header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	// Execute warmed every job once; re-running is all memo hits.
	st := p.Scheduler.Stats()
	if st.Misses == 0 {
		t.Fatal("nothing simulated")
	}
	if err := p.Execute(sc, &strings.Builder{}, ""); err != nil {
		t.Fatal(err)
	}
	if got := p.Scheduler.Stats(); got.Misses != st.Misses {
		t.Errorf("re-execution simulated fresh jobs: misses %d -> %d", st.Misses, got.Misses)
	}
}

// TestWarmCoversRender pins the core planner contract: once the
// enqueued expansion has finished, the renderer's requests are
// served entirely from the memo.
func TestWarmCoversRender(t *testing.T) {
	sc, err := LoadFile(writeScenario(t, sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	p := &Planner{Scheduler: campaign.NewScheduler(4, nil)}
	tickets, err := p.Enqueue(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		tk.Wait(context.Background())
	}
	st := p.Scheduler.Stats()
	for si := range sc.Sweeps {
		if err := p.renderSweep(context.Background(), sc, si, &strings.Builder{}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.renderJobs(context.Background(), sc, &strings.Builder{}, ""); err != nil {
		t.Fatal(err)
	}
	if got := p.Scheduler.Stats(); got.Misses != st.Misses {
		t.Errorf("render simulated %d jobs the expansion did not plan", got.Misses-st.Misses)
	}
}
