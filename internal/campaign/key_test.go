package campaign

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenJobs returns representative jobs whose canonical keys are pinned
// on disk: a plain tiny job, a small job with a clock override, and a
// job with a custom interconnect. Accidental key-format changes — which
// would silently invalidate every on-disk cache — fail the golden test.
func goldenJobs() []struct {
	name string
	rs   spec.RunSpec
} {
	fabric := netsim.HDR100()
	fabric.Name = "HDR200 InfiniBand fat-tree"
	fabric.LinkBandwidth *= 2
	return []struct {
		name string
		rs   spec.RunSpec
	}{
		{"tealeaf_tiny_72_ClusterA", spec.RunSpec{
			Benchmark: "tealeaf", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 72,
		}},
		{"pot3d_small_104_ClusterB_1.6GHz", spec.RunSpec{
			Benchmark: "pot3d", Class: bench.Small,
			Cluster: machine.MustGet("ClusterB"), Ranks: 104, ClockHz: 1.6e9,
		}},
		{"lbm_tiny_8_ClusterA_steps2_HDR200", spec.RunSpec{
			Benchmark: "lbm", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 8,
			Options: bench.Options{SimSteps: 2}, Net: fabric,
		}},
	}
}

// TestKeyGolden pins the canonical job keys of representative RunSpecs.
// A mismatch means persisted stores from earlier builds will no longer be
// hit — if the change is intentional (simulation semantics changed), bump
// keyVersion and regenerate with -update.
func TestKeyGolden(t *testing.T) {
	golden := filepath.Join("testdata", "keys.golden")
	if *update {
		var b strings.Builder
		for _, g := range goldenJobs() {
			fmt.Fprintf(&b, "%s %s\n", g.name, Key(g.rs))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if len(want) == 0 {
		t.Fatal("empty golden file")
	}
	for _, g := range goldenJobs() {
		got := Key(g.rs)
		if w, ok := want[g.name]; !ok {
			t.Errorf("%s missing from golden file (regenerate with -update)", g.name)
		} else if got != w {
			t.Errorf("%s key changed:\n got %s\nwant %s\ncanonical encoding:\n%s\n"+
				"(intentional? bump keyVersion and regenerate with -update)",
				g.name, got, w, Canonical(g.rs))
		}
	}
}

// TestKeyStableAcrossInstances checks that independently resolved specs
// produce identical keys (content addressing, not pointer identity).
func TestKeyStableAcrossInstances(t *testing.T) {
	mk := func() spec.RunSpec {
		return spec.RunSpec{
			Benchmark: "tealeaf", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 18, ClockHz: 1.6e9,
		}
	}
	if Key(mk()) != Key(mk()) {
		t.Error("identical jobs from independent cluster instances have distinct keys")
	}
}

// leafPaths walks a struct type and returns the field-index chains of
// every exported scalar leaf, following pointers.
func leafPaths(t reflect.Type, prefix []int, name string, add func(path []int, name string)) {
	switch t.Kind() {
	case reflect.Pointer:
		leafPaths(t.Elem(), prefix, name, add)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			leafPaths(f.Type, append(append([]int(nil), prefix...), i), name+"."+f.Name, add)
		}
	default:
		add(prefix, name)
	}
}

// field navigates a value along a leaf path, dereferencing pointers.
func field(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.Field(i)
	}
	return v
}

// keyExempt lists the RunSpec fields that deliberately do NOT enter the
// job key: pure execution-strategy knobs whose results are byte-identical
// at every setting. For these the test asserts the inverse invariant —
// perturbing them must NOT change the key — so a serial warm cache keeps
// hitting when the scheduler later grants intra-job parallelism (and
// vice versa). Adding a field here requires the same byte-identity
// guarantee SimWorkers has (pinned by the parity goldens in
// internal/spec).
var keyExempt = map[string]bool{
	"RunSpec.SimWorkers": true,
}

// TestKeyCoversEveryField perturbs every exported scalar field reachable
// from a RunSpec — including the full cluster, CPU, DVFS, and
// interconnect specs — and requires the canonical key to change. This is
// the guard against silently adding a simulation-relevant field that the
// canonical encoding forgets, which would alias distinct jobs in the
// persistent store. Fields in keyExempt are held to the opposite rule.
func TestKeyCoversEveryField(t *testing.T) {
	base := func() spec.RunSpec {
		return spec.RunSpec{
			Benchmark: "lbm", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 4,
			ClockHz: 1.2e9, Net: netsim.HDR100(),
		}
	}
	k0 := Key(base())

	var paths [][]int
	var names []string
	leafPaths(reflect.TypeOf(spec.RunSpec{}), nil, "RunSpec", func(p []int, n string) {
		paths = append(paths, p)
		names = append(names, n)
	})
	if len(paths) < 40 {
		t.Fatalf("walked only %d leaf fields; reflection walk broken?", len(paths))
	}
	for i, p := range paths {
		rs := base()
		v := field(reflect.ValueOf(&rs).Elem(), p)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "~")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Float64:
			// Doubling (plus one, so zero moves too) keeps clock values on
			// a changed ladder point even under DVFS quantization.
			v.SetFloat(v.Float()*2 + 1)
		case reflect.Int:
			v.SetInt(v.Int()*2 + 1)
		default:
			t.Errorf("%s: unhandled field kind %v — teach the key test (and Canonical) about it",
				names[i], v.Kind())
			continue
		}
		if keyExempt[names[i]] {
			if Key(rs) != k0 {
				t.Errorf("%s is declared execution-only but changes the job key — it would split the cache by worker count", names[i])
			}
			continue
		}
		if Key(rs) == k0 {
			t.Errorf("%s does not affect the job key — Canonical is missing a field", names[i])
		}
	}
}

// TestKeyDoesNotClampInvalidClocks checks that clock overrides outside
// the DVFS range — which spec.Run rejects — never share a key with the
// legitimate ladder-endpoint job: the invalid job must memoize its own
// error, and the valid endpoint job must never be served that error.
func TestKeyDoesNotClampInvalidClocks(t *testing.T) {
	valid, invalid := counterJob(1), counterJob(1)
	valid.ClockHz = valid.Cluster.CPU.DVFS.MinHz
	invalid.ClockHz = valid.Cluster.CPU.DVFS.MinHz / 2
	if Key(valid) == Key(invalid) {
		t.Fatal("out-of-range clock clamped onto the ladder endpoint key")
	}
	sched := NewScheduler(1, nil)
	outs := sched.Run(context.Background(), []spec.RunSpec{invalid, valid}, Exact)
	if outs[0].Err == nil {
		t.Error("out-of-range clock job did not fail")
	}
	if outs[1].Err != nil {
		t.Errorf("endpoint-clock job inherited the invalid job's error: %v", outs[1].Err)
	}
}

// TestJobDescReportsOverrides checks error identities carry the failing
// job's own cluster and clock, not a sibling's.
func TestJobDescReportsOverrides(t *testing.T) {
	rs := spec.RunSpec{
		Benchmark: "pot3d", Class: bench.Small,
		Cluster: machine.MustGet("ClusterB"), Ranks: 26, ClockHz: 1.6e9,
	}
	got := jobDesc(rs)
	for _, want := range []string{"pot3d", "small", "ClusterB", "1.6 GHz", "26 ranks"} {
		if !strings.Contains(got, want) {
			t.Errorf("jobDesc %q missing %q", got, want)
		}
	}
	if got := jobDesc(spec.RunSpec{Benchmark: "lbm", Ranks: 1}); !strings.Contains(got, "<nil cluster>") {
		t.Errorf("jobDesc without cluster = %q", got)
	}
}

// TestResultsNamesFailingJob checks Results reports a failed batch by
// the failing job's own identity: in a valid, invalid-clock, valid
// batch, the error carries the invalid job's clock and rank count, not
// a sibling's.
func TestResultsNamesFailingJob(t *testing.T) {
	dvfs := counterJob(1).Cluster.CPU.DVFS
	jobs := []spec.RunSpec{counterJob(1), counterJob(3), counterJob(2)}
	jobs[0].ClockHz = dvfs.MinHz
	jobs[1].ClockHz = dvfs.MinHz / 2 // below the ladder: spec.Run rejects it
	jobs[2].ClockHz = dvfs.MaxHz
	results, err := Results(NewScheduler(2, nil).Run(context.Background(), jobs, Exact))
	if err == nil {
		t.Fatalf("batch with an out-of-range clock succeeded: %d results", len(results))
	}
	msg := err.Error()
	for _, want := range []string{fmt.Sprintf("at %g GHz", jobs[1].ClockHz/1e9), "with 3 ranks"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name the failing job (%q)", msg, want)
		}
	}
	for _, sib := range []spec.RunSpec{jobs[0], jobs[2]} {
		for _, bad := range []string{fmt.Sprintf("at %g GHz", sib.ClockHz/1e9), fmt.Sprintf("with %d ranks", sib.Ranks)} {
			if strings.Contains(msg, bad) {
				t.Errorf("error %q names a sibling job (%q)", msg, bad)
			}
		}
	}
}
