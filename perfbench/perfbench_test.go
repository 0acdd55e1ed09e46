package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

func TestStreamsAreSeeded(t *testing.T) {
	streams := map[string]func(seed uint64) *stream{
		"serve-mix":      func(seed uint64) *stream { return defaultServeMix.stream(seed, 2) },
		"sweep-cold":     defaultSweepCold.stream,
		"multinode-cold": defaultMultinodeCold.stream,
	}
	rounds := func(s *stream) []round {
		var out []round
		for i := range 6 {
			out = append(out, s.round(i))
		}
		return out
	}
	for name, mk := range streams {
		a, b, c := rounds(mk(7)), rounds(mk(7)), rounds(mk(8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different request lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
	}
}

func TestRoundsKeepTheirMix(t *testing.T) {
	s := defaultServeMix.stream(3, 2)
	for i := range 50 {
		rd := s.round(i)
		if rd.pair == nil || rd.pair.kind != opCold {
			t.Fatalf("round %d: pair %+v, want a cold job", i, rd.pair)
		}
		for c, ops := range rd.ops {
			fast := 0
			for _, o := range ops {
				if o.kind == opFast {
					fast++
				}
			}
			if len(ops) != defaultServeMix.perClient || fast != defaultServeMix.fastPerClient {
				t.Fatalf("round %d client %d: %d ops, %d fast", i, c, len(ops), fast)
			}
		}
	}
	seen := map[jobReq]bool{}
	for i := range 400 {
		j := s.round(i).pair.job
		if seen[j] {
			t.Fatalf("round %d repeats cold job %+v", i, j)
		}
		seen[j] = true
	}
	// Each sweep-cold and multinode-cold round asks every combination once,
	// and later rounds ask new keys.
	for name, s := range map[string]*stream{"sweep-cold": defaultSweepCold.stream(3),
		"multinode-cold": defaultMultinodeCold.stream(3)} {
		keys := map[string]bool{}
		for i := range 3 {
			for _, o := range s.round(i).ops[0] {
				k := fmt.Sprintf("%+v %+v", o.job, o.doc)
				if keys[k] {
					t.Errorf("%s round %d repeats %s", name, i, k)
				}
				keys[k] = true
			}
		}
	}
}

// A multinode-cold run finishes one round or two, depending on the speed
// of the host; its tail must read the same percentile either way.
func TestMultinodeTailPercentileHoldsAcrossRounds(t *testing.T) {
	n := len(defaultMultinodeCold.stream(1).round(0).ops[0])
	one, two := tailOf(make([]float64, n)), tailOf(make([]float64, 2*n))
	if one.Pct != two.Pct || one.Pct == 50 {
		t.Errorf("a round of %d jobs: tail p%d after one round, p%d after two", n, one.Pct, two.Pct)
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{1000, 99, 990}, {999, 90, 900}, {100, 90, 90}, {99, 75, 75},
		{40, 75, 30}, {39, 50, 20}, {20, 50, 10}, {19, 50, 10}, {1, 50, 1},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // 1..n, in reverse
		}
		got := tailOf(xs)
		if got.Pct != tc.pct || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d: tail %+v, want p%d = %g", tc.n, got, tc.pct, tc.value)
		}
		if got.Pct != 50 && beyond(tc.n, got.Pct) < minBeyond {
			t.Errorf("n=%d: p%d leaves %d samples beyond", tc.n, got.Pct, beyond(tc.n, got.Pct))
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

const repoPrefix = "github.com/spechpc/spechpc-sim/internal/"

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		want   string
		frames []string
	}{
		{"runtime_sched", []string{"runtime.chanrecv", "runtime.chanrecv1",
			repoPrefix + "sim.(*Proc).yield", repoPrefix + "sim.(*Env).RunUntil"}},
		{"json", []string{"encoding/json.(*encodeState).marshal", "encoding/json.(*Encoder).Encode",
			repoPrefix + "service.writeJSON", repoPrefix + "service.(*Server).handleJobStatus"}},
		{"json", []string{"reflect.Value.Field", "encoding/json.(*decodeState).object", "main.(*client).getJSON"}},
		{"mpi", []string{"runtime.memmove", repoPrefix + "mpi.(*Rank).Allreduce", repoPrefix + "spec.Run"}},
		{"runtime_gc_alloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc",
			repoPrefix + "benchmarks/lbm.(*lattice).stream"}},
		{"runtime_gc_alloc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"sim.eventq", []string{repoPrefix + "sim.(*Env).siftDown", repoPrefix + "sim.(*Env).heapFix"}},
		{"sim.psresource", []string{repoPrefix + "sim.(*PSResource).reschedule", repoPrefix + "sim.(*Env).dispatch"}},
		{"sim.psresource", []string{repoPrefix + "sim.(*Env).retimeFlow"}},
		{"sim.other", []string{repoPrefix + "sim.(*Proc).Park"}},
		{"psim", []string{repoPrefix + "sim/psim.(*Engine).runWindow.func1"}},
		{"kernels", []string{"math.Sqrt", repoPrefix + "benchmarks/tealeaf.(*solver).cg"}},
		{"machine", []string{repoPrefix + "dvfs.Model.Quantize", repoPrefix + "machine.(*System).Compute"}},
		{"spec_trace", []string{repoPrefix + "trace.(*Recorder).Add"}},
		{"campaign", []string{"syscall.Syscall", "os.(*File).Write", repoPrefix + "campaign.(*DirStore).Put"}},
		{"net_io", []string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write",
			"net/http.(*response).finishRequest", repoPrefix + "service.(*Server).handleJobStatus"}},
		{"scenario_render", []string{"strconv.FormatFloat", repoPrefix + "report.(*Table).Render"}},
		{"surrogate", []string{repoPrefix + "surrogate.fitPCHIP"}},
		{"service", []string{"strings.Split", repoPrefix + "fleet.(*Admission).Decide"}},
		{"other", []string{"compress/flate.(*compressor).deflate", "runtime/pprof.(*profileBuilder).flush"}},
		{"other", []string{"runtime.memmove", "runtime.goexit"}},
	} {
		if got := classify(tc.frames); got != tc.want {
			t.Errorf("classify(%s) = %s, want %s", tc.frames[0], got, tc.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 60ms ( 6.00%)
-----------+-------------------------------------------------------
      40ms   runtime.chanrecv
             ` + repoPrefix + `sim.(*Proc).yield
-----------+-------------------------------------------------------
      20ms   ` + repoPrefix + `sim.(*Env).siftDown
-----------+-------------------------------------------------------
`
	stacks, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 || stacks[0].value != 40*time.Millisecond || len(stacks[0].frames) != 2 {
		t.Fatalf("stacks = %+v", stacks)
	}
	shares, total := cpuShares(stacks)
	if total != 60*time.Millisecond || shares["runtime_sched"] != 40.0/60 || shares["sim.eventq"] != 20.0/60 {
		t.Errorf("shares %v over %v", shares, total)
	}
	if _, err := parseTraces(strings.NewReader("-----------+\n   soon   x\n")); err == nil {
		t.Error("a stack with an unparsable value was accepted")
	}
}

// fakeStore answers from fixed results.
type fakeStore struct {
	rec    campaign.Record
	ok     bool
	getErr error
	putErr error
	puts   int
}

func (f *fakeStore) Get(string) (campaign.Record, bool, error) { return f.rec, f.ok, f.getErr }
func (f *fakeStore) Put(string, campaign.Record) error         { f.puts++; return f.putErr }

// fakePredictor refuses or answers from fixed results.
type fakePredictor struct {
	pred     campaign.Predicted
	err      error
	observed int
}

func (f *fakePredictor) Predict(spec.RunSpec) (campaign.Predicted, error) { return f.pred, f.err }
func (f *fakePredictor) Observe(spec.RunResult)                           { f.observed++ }

func TestWrappersPassThrough(t *testing.T) {
	faultErr := errors.New("disk on fire")
	refused := fmt.Errorf("%w: outside the hull", campaign.ErrRefused)
	for _, armed := range []bool{false, true} {
		tr := &tracer{}
		tr.armed.Store(armed)

		miss := &fakeStore{}
		if rec, ok, err := (&tracedStore{inner: miss, tr: tr}).Get("k"); ok || err != nil || !reflect.DeepEqual(rec, campaign.Record{}) {
			t.Errorf("armed=%t: miss came back as %v %v", armed, ok, err)
		}
		fault := &fakeStore{getErr: faultErr, putErr: faultErr}
		ts := &tracedStore{inner: fault, tr: tr}
		if _, ok, err := ts.Get("k"); ok || err != faultErr {
			t.Errorf("armed=%t: Get fault came back as %v %v", armed, ok, err)
		}
		if err := ts.Put("k", campaign.Record{Key: "k"}); err != faultErr || fault.puts != 1 {
			t.Errorf("armed=%t: Put fault came back as %v after %d puts", armed, err, fault.puts)
		}
		hit := &fakeStore{rec: campaign.Record{Key: "k", Ranks: 3}, ok: true}
		if rec, ok, err := (&tracedStore{inner: hit, tr: tr}).Get("k"); !ok || err != nil || rec.Ranks != 3 {
			t.Errorf("armed=%t: hit came back as %+v %v %v", armed, rec, ok, err)
		}

		for _, inner := range []*fakePredictor{
			{err: campaign.ErrNoModel}, {err: refused},
			{pred: campaign.Predicted{Bound: 0.05}},
		} {
			tp := &tracedPredictor{inner: inner, tr: tr}
			pred, err := tp.Predict(spec.RunSpec{Benchmark: "lbm"})
			if err != inner.err || pred.Bound != inner.pred.Bound {
				t.Errorf("armed=%t: Predict returned %+v %v, want %+v %v", armed, pred, err, inner.pred, inner.err)
			}
			tp.Observe(spec.RunResult{})
			if inner.observed != 1 {
				t.Errorf("armed=%t: Observe reached the index %d times", armed, inner.observed)
			}
		}
		if errors.Is(refused, campaign.ErrNoModel) || !errors.Is(refused, campaign.ErrRefused) {
			t.Fatal("fixture errors are mislabelled")
		}

		wantSpans := 0
		if armed {
			wantSpans = 1
		}
		if len(tr.puts) != wantSpans || len(tr.gets) != 3*wantSpans || len(tr.predicts) != 3*wantSpans {
			t.Errorf("armed=%t: recorded %d gets, %d puts, %d predicts", armed, len(tr.gets), len(tr.puts), len(tr.predicts))
		}
	}
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if (got[i] != entry{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the registry %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, allPerLayer())
	for _, w := range bj.Workloads {
		if _, ok := workloads()[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// smokeWorkloads are the three workloads cut down to a few jobs.
func smokeWorkloads() []*workload {
	return []*workload{
		serveMixWorkload(serveMix{grid: []string{"weather"}, clusters: []string{"ClusterB"},
			fast: []family{{"weather", "ClusterB"}}, perClient: 4, fastPerClient: 1}),
		sweepColdWorkload(sweepCold{groups: [][]string{{"pot3d"}}, clusters: []string{"ClusterA"}}),
		multinodeColdWorkload(multinodeCold{kernels: []string{"pot3d"}, nodes: []int{4}, clusters: []string{"ClusterA"}}),
	}
}

func TestSmoke(t *testing.T) {
	for _, w := range smokeWorkloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				res, err := run(w, options{seed: 1, seconds: 0.3, trace: traced, workDir: t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				if traced {
					want = allPerLayer()
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
						t.Errorf("metric %s: %+v, present %t", m.name, v, ok)
					}
				}
				if !traced && !(res.Metrics["jobs_per_s"].Value > 0 && res.Metrics["setup_s"].Value > 0) {
					t.Errorf("end-to-end metrics %+v", res.Metrics)
				}
			})
		}
	}
}
