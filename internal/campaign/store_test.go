package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/mpi"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

var _ Store = (*DirStore)(nil)

// TestStoreServesAcrossEngines is the cross-process cache contract,
// modeled with two schedulers sharing one directory: the first one
// simulates and writes through; a second (fresh-process stand-in) serves
// the same jobs entirely from the store, with zero fresh simulations and
// results identical to the originals — including the per-kind trace sums
// the figure insets read.
func TestStoreServesAcrossEngines(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []spec.RunSpec{counterJob(1), counterJob(2)}

	before := simCount.Load()
	sched1 := NewScheduler(2, st)
	first := sched1.Run(context.Background(), jobs, Exact)
	for i, o := range first {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	if got := simCount.Load() - before; got != 3 {
		t.Fatalf("first scheduler executed on %d ranks, want 3", got)
	}
	if s := sched1.Stats(); s.Misses != 2 || s.StoreHits != 0 || s.StoreFaults != 0 {
		t.Errorf("first scheduler stats = %+v, want 2 misses, no store hits/faults", s)
	}
	if u, err := st.Usage(); err != nil || u.Records != 2 {
		t.Fatalf("store holds %d records (err %v), want 2", u.Records, err)
	}

	sched2 := NewScheduler(2, st)
	second := sched2.Run(context.Background(), jobs, Exact)
	if got := simCount.Load() - before; got != 3 {
		t.Errorf("second scheduler re-simulated: %d ranks executed, want still 3", got)
	}
	if s := sched2.Stats(); s.StoreHits != 2 || s.Misses != 0 {
		t.Errorf("second scheduler stats = %+v, want 2 store hits and 0 misses", s)
	}
	for i := range jobs {
		a, b := first[i].Result, second[i].Result
		if !reflect.DeepEqual(a.Usage, b.Usage) || !reflect.DeepEqual(a.RawUsage, b.RawUsage) {
			t.Errorf("job %d: usage round-tripped inexactly:\n%+v\nvs\n%+v", i, a.Usage, b.Usage)
		}
		if !reflect.DeepEqual(a.Report, b.Report) {
			t.Errorf("job %d: report differs after store round trip", i)
		}
		if !reflect.DeepEqual(a.Spec.Cluster, b.Spec.Cluster) || a.Spec.Benchmark != b.Spec.Benchmark ||
			a.Spec.ClockHz != b.Spec.ClockHz || a.Spec.Ranks != b.Spec.Ranks {
			t.Errorf("job %d: spec differs after store round trip", i)
		}
		if !reflect.DeepEqual(a.Trace.Sums(), b.Trace.Sums()) {
			t.Errorf("job %d: trace sums differ after store round trip", i)
		}
	}
}

// TestKeepTraceBypassesStore checks that jobs recording full event
// timelines neither write to nor read from the persistent store (event
// lists are not serialized), while still memoizing in process.
func TestKeepTraceBypassesStore(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := counterJob(1)
	job.KeepTrace = true

	sched := NewScheduler(2, st)
	if out := sched.Run(context.Background(), []spec.RunSpec{job}, Exact); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if u, _ := st.Usage(); u.Records != 0 {
		t.Errorf("KeepTrace job persisted %d records, want 0", u.Records)
	}
	// In-process memo still applies.
	sched.Run(context.Background(), []spec.RunSpec{job}, Exact)
	if s := sched.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
	// A fresh scheduler must re-simulate.
	before := simCount.Load()
	NewScheduler(2, st).Run(context.Background(), []spec.RunSpec{job}, Exact)
	if simCount.Load() == before {
		t.Error("KeepTrace job served from store instead of re-simulating")
	}
}

// TestErrorsNotPersisted checks failing jobs never poison the store.
func TestErrorsNotPersisted(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := spec.RunSpec{Benchmark: "no-such-kernel", Class: bench.Tiny,
		Cluster: machine.MustGet("ClusterA"), Ranks: 1}
	sched := NewScheduler(2, st)
	if out := sched.Run(context.Background(), []spec.RunSpec{bad}, Exact); out[0].Err == nil {
		t.Fatal("bad job succeeded")
	}
	if u, _ := st.Usage(); u.Records != 0 {
		t.Errorf("failed job persisted %d records, want 0", u.Records)
	}
}

// TestCorruptRecordRepaired truncates a persisted record and checks the
// next scheduler counts a fault, re-simulates, and rewrites a good record.
func TestCorruptRecordRepaired(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := counterJob(1)
	if out := NewScheduler(1, st).Run(context.Background(), []spec.RunSpec{job}, Exact); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	var file string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			file = path
		}
		return nil
	})
	if file == "" {
		t.Fatal("no record written")
	}
	if err := os.WriteFile(file, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	sched := NewScheduler(1, st)
	if out := sched.Run(context.Background(), []spec.RunSpec{job}, Exact); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if s := sched.Stats(); s.StoreFaults == 0 || s.Misses != 1 {
		t.Errorf("stats = %+v, want a recorded fault and one fresh simulation", s)
	}
	if rec, ok, err := st.Get(Key(job)); err != nil || !ok || rec.Bench != job.Benchmark {
		t.Errorf("corrupt record not repaired: ok=%v err=%v", ok, err)
	}
}

// TestZeroLengthRecordSelfHeals covers the crash artifact the fsync in
// Put defends against: a zero-length file under a valid record name. It
// must read as a clean miss (not a fault — there is nothing to decode),
// be removed on sight, and be transparently replaced by the
// re-simulated record.
func TestZeroLengthRecordSelfHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := counterJob(1)
	key := Key(job)
	if out := NewScheduler(1, st).Run(context.Background(), []spec.RunSpec{job}, Exact); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	path := filepath.Join(dir, key[3:5], key+".json")
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := st.Get(key); ok || err != nil {
		t.Fatalf("zero-length record read as ok=%v err=%v, want a clean miss", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("zero-length record not removed on Get (stat err %v)", err)
	}
	sched := NewScheduler(1, st)
	if out := sched.Run(context.Background(), []spec.RunSpec{job}, Exact); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if s := sched.Stats(); s.Misses != 1 || s.StoreFaults != 0 {
		t.Errorf("stats = %+v, want one quiet miss and no fault for a zero-length record", s)
	}
	if rec, ok, err := st.Get(key); err != nil || !ok || rec.Bench != job.Benchmark {
		t.Errorf("record not rewritten after self-heal: ok=%v err=%v", ok, err)
	}
}

// TestCorruptRecordRemovedOnGet checks a torn record costs exactly one
// fault: the first Get surfaces the decode error and removes the file,
// so the second Get is a clean miss instead of faulting forever.
func TestCorruptRecordRemovedOnGet(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := counterJob(1)
	key := Key(job)
	if out := NewScheduler(1, st).Run(context.Background(), []spec.RunSpec{job}, Exact); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	path := filepath.Join(dir, key[3:5], key+".json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := st.Get(key); err == nil {
		t.Fatal("torn record read without error")
	}
	if _, ok, err := st.Get(key); ok || err != nil {
		t.Errorf("second Get after a torn record: ok=%v err=%v, want a clean miss", ok, err)
	}
}

// TestPutLeavesNoTempFiles checks successful and replaced writes clean
// up their ".tmp-" staging files — a leak here grows without bound on a
// long-lived daemon rewriting hot keys.
func TestPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := counterJob(1)
	key := Key(job)
	rec := Record{Format: recordFormat, Key: key, Spec: job}
	for i := 0; i < 3; i++ { // overwrite twice to cover the replace path
		if err := st.Put(key, rec); err != nil {
			t.Fatal(err)
		}
	}
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp-") {
			t.Errorf("leftover staging file %s", path)
		}
		return nil
	})
}

// TestTruncatedTraceSumsDegradeToMiss checks a record whose trace
// snapshot does not cover the job's ranks is rejected at load (and
// re-simulated) instead of reconstructing a short Recorder that would
// panic renderers indexing per-rank sums.
func TestTruncatedTraceSumsDegradeToMiss(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := counterJob(2)
	key := Key(job)
	if out := NewScheduler(1, st).Run(context.Background(), []spec.RunSpec{job}, Exact); out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	rec, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("record not written: ok=%v err=%v", ok, err)
	}
	rec.TraceSums = nil // valid JSON, wrong shape
	if err := st.Put(key, rec); err != nil {
		t.Fatal(err)
	}

	sched := NewScheduler(1, st)
	outs := sched.Run(context.Background(), []spec.RunSpec{job}, Exact)
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	if got := outs[0].Result.Trace.Ranks(); got != 2 {
		t.Errorf("reconstructed trace covers %d ranks, want 2", got)
	}
	if s := sched.Stats(); s.Misses != 1 || s.StoreHits != 0 {
		t.Errorf("stats = %+v, want the malformed record treated as a miss", s)
	}
}

// gate coordination for the goroutine-bound test. The gate kernel blocks
// its rank-0 body on gateCh, stalling the simulation from inside, so the
// test can observe how many goroutines a large batch spawns mid-flight.
var (
	gateCh      chan struct{}
	gateStarted atomic.Int64
)

func init() {
	bench.Register(&bench.Benchmark{
		ID:   91,
		Name: "campaign-gate",
		Run: func(r *mpi.Rank, c bench.Class, o bench.Options) (bench.RunReport, error) {
			gateStarted.Add(1)
			<-gateCh
			r.Compute(machine.Phase{Name: "gate", FlopsSIMD: 1e6, BytesMem: 1e4})
			rep := bench.RunReport{StepsModeled: 1, StepsSimulated: 1}
			if r.ID() == 0 {
				rep.Checks = []bench.Check{{Name: "synthetic", Value: 0, OK: true}}
			}
			return rep, nil
		},
	})
}

// TestRunSpawnsBoundedGoroutines submits a 48-job batch on a 2-worker
// scheduler and samples the process goroutine count while the first jobs
// are stalled inside the simulator. The scheduler must spawn at most
// `workers` executor goroutines — not one parked goroutine per fresh job,
// which is what a 10k-job scenario batch would otherwise pay.
func TestRunSpawnsBoundedGoroutines(t *testing.T) {
	gateCh = make(chan struct{})
	gateStarted.Store(0)
	jobs := make([]spec.RunSpec, 48)
	for i := range jobs {
		jobs[i] = spec.RunSpec{
			Benchmark: "campaign-gate", Class: bench.Tiny,
			Cluster: machine.MustGet("ClusterA"), Ranks: 1,
			Options: bench.Options{SimSteps: i + 1}, // distinct keys, no dedup
		}
	}
	baseline := runtime.NumGoroutine()
	done := make(chan []Outcome, 1)
	go func() { done <- NewScheduler(2, nil).Run(context.Background(), jobs, Exact) }()

	deadline := time.Now().Add(10 * time.Second)
	for gateStarted.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("gate jobs never started")
		}
		time.Sleep(time.Millisecond)
	}
	inFlight := runtime.NumGoroutine() - baseline
	close(gateCh)
	outs := <-done
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	// 2 workers + their in-flight simulations + the Run caller is well
	// under 24 goroutines; one goroutine per fresh job would be 48+.
	if inFlight >= 24 {
		t.Errorf("batch of 48 jobs held %d extra goroutines mid-flight; want bounded by the worker pool", inFlight)
	}
}
