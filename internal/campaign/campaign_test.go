package campaign

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	_ "github.com/spechpc/spechpc-sim/internal/benchmarks/suite"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// simCount counts fresh simulations of the synthetic "campaign-counter"
// kernel (it runs with Ranks: 1, so one increment per simulation).
var simCount atomic.Int64

func init() {
	bench.Register(&bench.Benchmark{
		ID:   90,
		Name: "campaign-counter",
		Run: func(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
			simCount.Add(1)
			r.Compute(machine.Phase{Name: "count", FlopsSIMD: 1e6, BytesMem: 1e4})
			rep := bench.RunReport{StepsModeled: 1, StepsSimulated: 1}
			if r.ID() == 0 {
				rep.Checks = []bench.Check{{Name: "synthetic", Value: 0, OK: true}}
			}
			return rep, nil
		},
	})
}

func counterJob(ranks int) spec.RunSpec {
	return spec.RunSpec{
		Benchmark: "campaign-counter", Class: bench.Tiny,
		Cluster: machine.MustGet("ClusterA"), Ranks: ranks,
	}
}

// TestParallelMatchesSerial runs a campaign of >= 8 jobs on >= 4 workers
// and requires results identical to the serial spec.Sweep baseline.
func TestParallelMatchesSerial(t *testing.T) {
	base := spec.RunSpec{
		Benchmark: "tealeaf", Class: bench.Tiny,
		Cluster: machine.MustGet("ClusterA"),
		Options: bench.Options{SimSteps: 2},
	}
	points := []int{1, 2, 3, 4, 6, 8, 12, 16}

	serial, err := spec.Sweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Results(NewScheduler(4, nil).Run(context.Background(), base.AtRanks(points), Exact))
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("got %d results, want %d", len(parallel), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(parallel[i].Usage, serial[i].Usage) {
			t.Errorf("point %d: parallel usage differs from serial:\n%+v\nvs\n%+v",
				points[i], parallel[i].Usage, serial[i].Usage)
		}
		if !reflect.DeepEqual(parallel[i].RawUsage, serial[i].RawUsage) {
			t.Errorf("point %d: raw usage differs", points[i])
		}
		if !reflect.DeepEqual(parallel[i].Report, serial[i].Report) {
			t.Errorf("point %d: report differs", points[i])
		}
	}
}

// TestCacheSkipsResimulation proves memoized jobs are not re-simulated:
// the synthetic kernel's global counter advances once per unique job no
// matter how many times the job is submitted.
func TestCacheSkipsResimulation(t *testing.T) {
	sched := NewScheduler(2, nil)
	before := simCount.Load()

	// Three submissions of the same job in one batch plus one distinct job.
	outs := sched.Run(context.Background(), []spec.RunSpec{counterJob(1), counterJob(1), counterJob(1), counterJob(2)}, Exact)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	// A second batch resubmitting both jobs.
	outs2 := sched.Run(context.Background(), []spec.RunSpec{counterJob(1), counterJob(2)}, Exact)

	// 1-rank job simulated once (1 rank) + 2-rank job once (2 ranks).
	if got := simCount.Load() - before; got != 3 {
		t.Errorf("kernel executed on %d ranks total, want 3 (one simulation per unique job)", got)
	}
	st := sched.Stats()
	if st.Jobs != 6 || st.Misses != 2 || st.Hits != 4 {
		t.Errorf("stats = %+v, want {Jobs:6 Hits:4 Misses:2}", st)
	}
	if !reflect.DeepEqual(outs[0].Result.Usage, outs2[0].Result.Usage) {
		t.Error("cached result differs from original")
	}
}

// TestPerJobErrorsDoNotAbortSiblings mixes failing jobs into a batch and
// requires every sibling to complete.
func TestPerJobErrorsDoNotAbortSiblings(t *testing.T) {
	sched := NewScheduler(4, nil)
	outs := sched.Run(context.Background(), []spec.RunSpec{
		counterJob(1),
		{Benchmark: "no-such-kernel", Class: bench.Tiny, Cluster: machine.MustGet("ClusterA"), Ranks: 1},
		counterJob(2),
		{Benchmark: "campaign-counter", Class: bench.Tiny, Ranks: 1}, // nil cluster
	}, Exact)
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Errorf("good jobs failed: %v, %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "unknown benchmark") {
		t.Errorf("unknown kernel not reported: %v", outs[1].Err)
	}
	if outs[3].Err == nil || !strings.Contains(outs[3].Err.Error(), "without cluster") {
		t.Errorf("nil cluster not reported: %v", outs[3].Err)
	}
	// Errors are memoized too.
	st := sched.Stats()
	outs2 := sched.Run(context.Background(), []spec.RunSpec{outs[1].Job}, Exact)
	if outs2[0].Err == nil {
		t.Error("memoized error lost")
	}
	if sched.Stats().Misses != st.Misses {
		t.Error("failed job re-simulated instead of served from cache")
	}
}

// TestOutcomesInInputOrder submits jobs in shuffled rank order and
// requires outcomes to line up with the inputs.
func TestOutcomesInInputOrder(t *testing.T) {
	ranks := []int{4, 1, 3, 1, 2, 4}
	jobs := make([]spec.RunSpec, len(ranks))
	for i, r := range ranks {
		jobs[i] = counterJob(r)
	}
	outs := NewScheduler(3, nil).Run(context.Background(), jobs, Exact)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Result.Usage.Ranks != ranks[i] {
			t.Errorf("outcome %d has %d ranks, want %d", i, o.Result.Usage.Ranks, ranks[i])
		}
		if o.Job.Ranks != ranks[i] {
			t.Errorf("outcome %d echoes job with %d ranks, want %d", i, o.Job.Ranks, ranks[i])
		}
	}
}

// TestKeyDistinguishesClustersByValue checks the cache key reflects the
// cluster hardware, not the pointer identity, so mutated cluster copies
// (ablation studies) never collide with the registered presets.
func TestKeyDistinguishesClustersByValue(t *testing.T) {
	a1, a2 := machine.MustGet("ClusterA"), machine.MustGet("ClusterA")
	j1, j2 := counterJob(1), counterJob(1)
	j1.Cluster, j2.Cluster = a1, a2
	if Key(j1) != Key(j2) {
		t.Error("identical hardware on distinct pointers produced distinct keys")
	}
	a2.CPU.MemSaturatedPerDomain *= 2
	if Key(j1) == Key(j2) {
		t.Error("mutated cluster spec shares a key with the preset")
	}
	j3 := j1
	j3.Options = bench.Options{SimSteps: 7}
	if Key(j1) == Key(j3) {
		t.Error("different options share a key")
	}
}

// TestKeyDistinguishesClockPoints checks that jobs differing only in the
// ClockHz override never share a memoized result, so every point of a
// frequency sweep is simulated in its own right.
func TestKeyDistinguishesClockPoints(t *testing.T) {
	j1, j2 := counterJob(1), counterJob(1)
	j2.ClockHz = 1.6e9
	if Key(j1) == Key(j2) {
		t.Error("clock override shares a key with the pinned-clock job")
	}
	j3 := j1
	j3.ClockHz = 1.2e9
	if Key(j2) == Key(j3) {
		t.Error("distinct clock points share a key")
	}
	// Requests snapping to the same ladder step run the same simulation
	// and must share one memo entry.
	j4, j5 := counterJob(1), counterJob(1)
	j4.ClockHz, j5.ClockHz = 1.21e9, 1.24e9
	if Key(j4) != Key(j5) {
		t.Error("requests quantizing to the same ladder step have distinct keys")
	}
}

// TestFrequencySweep fans one job across a clock list as one batch and
// checks ladder order and per-point memoization.
func TestFrequencySweep(t *testing.T) {
	sched := NewScheduler(4, nil)
	jobs := counterJob(2).AtClocks([]float64{0.8e9, 1.6e9, 2.4e9})

	results, err := Results(sched.Run(context.Background(), jobs, Exact))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Spec.ClockHz != jobs[i].ClockHz {
			t.Errorf("point %d ran at %g Hz, want %g", i, r.Spec.ClockHz, jobs[i].ClockHz)
		}
	}
	// Slower clocks may not beat the base wall time for this tiny kernel,
	// but the three points must be distinct simulations.
	st := sched.Stats()
	if st.Misses != 3 {
		t.Errorf("%d fresh simulations, want 3 (one per clock)", st.Misses)
	}
	// Resubmitting is all cache hits.
	if _, err := Results(sched.Run(context.Background(), jobs, Exact)); err != nil {
		t.Fatal(err)
	}
	if sched.Stats().Misses != st.Misses {
		t.Error("repeated frequency sweep re-simulated instead of hitting the cache")
	}
}

// TestSweepAllCoversCrossProduct checks a multi-kernel sweep submitted
// as one kernel × point batch returns every result in input order.
func TestSweepAllCoversCrossProduct(t *testing.T) {
	sched := NewScheduler(4, nil)
	names := []string{"campaign-counter", "tealeaf"}
	points := []int{1, 2}
	var jobs []spec.RunSpec
	for _, name := range names {
		jobs = append(jobs, spec.RunSpec{
			Benchmark: name,
			Class:     bench.Tiny,
			Cluster:   machine.MustGet("ClusterA"),
			Options:   bench.Options{SimSteps: 1},
		}.AtRanks(points)...)
	}
	results, err := Results(sched.Run(context.Background(), jobs, Exact))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		name, p := names[i/len(points)], points[i%len(points)]
		if r.Spec.Benchmark != name || r.Usage.Ranks != p {
			t.Errorf("result %d is %s at %d ranks, want %s at %d",
				i, r.Spec.Benchmark, r.Usage.Ranks, name, p)
		}
	}
}

// TestPooledEnvReuseAcrossWorkers drives many fresh simulations through
// a parallel worker pool, twice, so workers concurrently take, idle,
// and reuse recycled MPI Jobs and their sim environments (event slabs,
// process structs, coroutines). Run under -race in CI, this pins the
// thread-safety of the free list; the result comparison between the
// two rounds pins that reuse never leaks state between jobs.
func TestPooledEnvReuseAcrossWorkers(t *testing.T) {
	cluster := machine.MustGet("ClusterA")
	jobs := make([]spec.RunSpec, 0, 12)
	for _, name := range []string{"tealeaf", "lbm", "minisweep", "pot3d"} {
		for _, ranks := range []int{2, 4, 7} {
			jobs = append(jobs, spec.RunSpec{
				Benchmark: name, Class: bench.Tiny, Cluster: cluster,
				Ranks: ranks, Options: bench.Options{SimSteps: 1},
			})
		}
	}
	run := func() []Outcome {
		// A fresh scheduler per round defeats memoization, forcing every
		// job to re-simulate on recycled environments.
		return NewScheduler(4, nil).Run(context.Background(), jobs, Exact)
	}
	first := run()
	second := run()
	for i := range jobs {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, first[i].Err, second[i].Err)
		}
		a, b := first[i].Result.Usage, second[i].Result.Usage
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("job %d: usage differs across reruns on recycled Jobs:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestPooledJobReuseOscillatingShapes stresses the recycled-Job Reinit
// paths the allocation-free MPI layer introduced: rank counts that
// oscillate between large and small (growing and shrinking the Job's
// rank, resource, and arena slices) and jobs alternating between
// clusters (repointing recycled Systems at different specs). Concurrent
// execution must produce results identical to a single-worker run of
// the same batch — any stale recycled state (leaked envelopes,
// mis-sized rank slices, reused payload arenas) shows up as a diff or
// as a -race report.
func TestPooledJobReuseOscillatingShapes(t *testing.T) {
	a := machine.MustGet("ClusterA")
	bCluster := machine.MustGet("ClusterB")
	shapes := []struct {
		cluster *machine.ClusterSpec
		ranks   int
	}{
		{a, 36}, {a, 2}, {bCluster, 52}, {a, 7}, {bCluster, 1}, {a, 18},
		{bCluster, 13}, {a, 1}, {a, 24}, {bCluster, 4},
	}
	jobs := make([]spec.RunSpec, 0, len(shapes)*2)
	for _, name := range []string{"tealeaf", "minisweep"} {
		for _, sh := range shapes {
			jobs = append(jobs, spec.RunSpec{
				Benchmark: name, Class: bench.Tiny, Cluster: sh.cluster,
				Ranks: sh.ranks, Options: bench.Options{SimSteps: 1},
			})
		}
	}
	// Fresh schedulers defeat memoization so both runs simulate every job;
	// the single worker run is the sequential reference.
	serial := NewScheduler(1, nil).Run(context.Background(), jobs, Exact)
	parallel := NewScheduler(4, nil).Run(context.Background(), jobs, Exact)
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Fatalf("job %d (%s ranks=%d on %s): parallel result differs from serial",
				i, jobs[i].Benchmark, jobs[i].Ranks, jobs[i].Cluster.Name)
		}
	}
}
