// Command perfbench is the end-to-end benchmark of spechpcd: it boots the
// real service in process on a loopback listener, wired as
// `spechpcd -cache-dir -surrogate` wires it with a two-worker scheduler,
// drives it with the query shapes of the paper's evaluation, checks
// every answer, and prints the metrics by name with their units. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 30, "failed": 0, "metrics": {"setup_s": {"value": 0.0012, "unit": "s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload twice, untraced and then traced
// through the daemon's public seams (HTTP middleware, runner, store and
// predictor wrappers, psim and runtime counters, a CPU profile read back
// with `go tool pprof -traces`), and prints the per-layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name    string
	clients int
	// setups is how many times an untraced run sets up; setup_s is the
	// median and the last set-up serves the timed phase.
	setups int
	// warmGrid is simulated into the store before the restart (serve-mix).
	warmGrid []jobReq
	stream   func(seed uint64) *stream
	// exactSample and fastSample size the correctness sample.
	exactSample, fastSample int
}

func serveMixWorkload(w serveMix) *workload {
	return &workload{name: "serve-mix", clients: 2, setups: 3, warmGrid: w.gridJobs(),
		stream: func(seed uint64) *stream { return w.stream(seed, 2) }, exactSample: 6, fastSample: 6}
}

func sweepColdWorkload(w sweepCold) *workload {
	return &workload{name: "sweep-cold", clients: 1, setups: 25, stream: w.stream, exactSample: 6}
}

func multinodeColdWorkload(w multinodeCold) *workload {
	return &workload{name: "multinode-cold", clients: 1, setups: 25, stream: w.stream, exactSample: 2}
}

func workloads() map[string]*workload {
	return map[string]*workload{
		"serve-mix":      serveMixWorkload(defaultServeMix),
		"sweep-cold":     sweepColdWorkload(defaultSweepCold),
		"multinode-cold": multinodeColdWorkload(defaultMultinodeCold),
	}
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workDir string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	name := flag.String("workload", "", "workload: serve-mix, sweep-cold or multinode-cold")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated request stream")
	flag.Float64Var(&o.seconds, "seconds", 15, "minimum length of a timed phase (it ends at a round boundary)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/work", "scratch directory for stores and profiles")
	flag.Parse()
	o.trace = *traceFlag == 1

	w, ok := workloads()[*name]
	if !ok || flag.NArg() > 0 || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := run(w, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for n := range workloads() {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run performs one benchmark run and returns its result line.
func run(w *workload, o options, out io.Writer) (result, error) {
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "perfbench: workload %s, seed %d, seconds %g, trace %t\n", w.name, o.seed, o.seconds, o.trace)
	if o.trace {
		return runTraced(w, o, dir, out)
	}
	return runEndToEnd(w, o, dir, out)
}

// runEndToEnd is the untraced run: the end-to-end metrics.
func runEndToEnd(w *workload, o options, dir string, out io.Writer) (result, error) {
	var setups []float64
	var d *daemon
	for i := range w.setups {
		if d != nil {
			if err := d.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = setUp(w, filepath.Join(dir, "setup-"+strconv.Itoa(i)), nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	book := newAnswers()
	ph := runPhase(d.url(), w.stream(o.seed), w.clients, o.seconds, book)
	sample := checkSample(w, newClient(d.url(), book), book, o.seed)
	if err := d.close(); err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	lat := ph.latencies()
	tl := tailOf(lat)
	m := map[string]float64{
		"setup_s":         pct(setups, 50),
		"jobs_per_s":      ph.jobsPerSecond(),
		"latency_p50_ms":  pct(lat, 50),
		"latency_tail_ms": tl.Value,
	}
	res := newResult(ph, sample)
	reportFailures(ph, sample)
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(out, "%-16s %12.4f %-5s %s\n", name, v, unit, note)
	}
	for _, mt := range endToEnd {
		res.Metrics[mt.name] = value{m[mt.name], mt.unit}
		note := ""
		switch mt.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(setups))
		case "jobs_per_s":
			note = fmt.Sprintf("median over %d rounds; %d jobs in %.2f s", ph.rounds, ph.jobs(), ph.elapsed.Seconds())
		case "latency_p50_ms":
			note = fmt.Sprintf("n=%d", len(lat))
		case "latency_tail_ms":
			note = fmt.Sprintf("p%d, n=%d", tl.Pct, tl.N)
		}
		line(mt.name, m[mt.name], mt.unit, note)
	}
	line("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio",
		fmt.Sprintf("%d of %d requests", res.Failed, res.Attempted))
	line("peak_rss_mb", rss, "MB", "VmHWM of the run")
	reportSample(out, sample)
	return res, nil
}

// newResult counts attempts and failures: every failed request, and
// every failed check of the correctness sample. A run is correct when
// nothing failed and the sample checked something.
func newResult(ph phaseResult, sample sampleReport) result {
	failed := len(ph.failures()) + len(sample.errs)
	return result{
		Correct:   failed == 0 && sample.exact > 0,
		Attempted: max(1, len(ph.outcomes)),
		Failed:    failed,
		Metrics:   map[string]value{},
	}
}

func reportSample(out io.Writer, s sampleReport) {
	fmt.Fprintf(out, "correctness sample: %d exact answers re-run serially, %d fast answers checked against their bound\n",
		s.exact, s.fast)
}

// reportFailures prints the first few failures to standard error.
func reportFailures(ph phaseResult, s sampleReport) {
	errs := append(ph.failures(), s.errs...)
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: failure:", err)
	}
}

// runTraced runs the workload three times: untraced to warm the process
// up, traced, and untraced again for the reference the tracing overhead
// is taken against, so both measured phases run in a warm process. It
// reports the per-layer ledger of the traced phase.
func runTraced(w *workload, o options, dir string, out io.Writer) (result, error) {
	warm, err := untracedPhase(w, o, filepath.Join(dir, "warm-up"))
	if err != nil {
		return result{}, err
	}
	run := &tracedRun{workload: w.name, seed: o.seed, tr: &tracer{}}
	d, err := setUp(w, filepath.Join(dir, "traced"), run.tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	profile := filepath.Join(dir, "cpu.pprof")
	sample, err := tracedPhase(w, o, run, d, profile)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	plain, err := untracedPhase(w, o, filepath.Join(dir, "untraced"))
	if err != nil {
		return result{}, err
	}
	run.untracedJobsPS = plain.jobsPerSecond()
	stacks, err := readTraces(profile)
	if err != nil {
		return result{}, err
	}
	run.cpu, run.cpuTotal = cpuShares(stacks)
	m, err := layerMetrics(run)
	if err != nil {
		return result{}, err
	}
	writeLedger(out, run, m, o.seconds)

	all := phaseResult{outcomes: append(append(warm.outcomes, run.phase.outcomes...), plain.outcomes...)}
	res := newResult(all, sample)
	reportFailures(all, sample)
	for _, mt := range allPerLayer() {
		res.Metrics[mt.name] = value{m[mt.name], mt.unit}
	}
	reportSample(out, sample)
	return res, nil
}

// untracedPhase sets up a stock daemon and runs one timed phase on it.
func untracedPhase(w *workload, o options, dir string) (phaseResult, error) {
	d, err := setUp(w, dir, nil)
	if err != nil {
		return phaseResult{}, fmt.Errorf("set-up: %w", err)
	}
	ph := runPhase(d.url(), w.stream(o.seed), w.clients, o.seconds, newAnswers())
	return ph, d.close()
}

// tracedPhase runs the timed phase on a traced daemon under the CPU
// profiler, filling run with the phase and the counter snapshots around
// it, and checks the correctness sample.
func tracedPhase(w *workload, o options, run *tracedRun, d *daemon, profile string) (sampleReport, error) {
	c := newClient(d.url(), nil)
	var err error
	if run.before, err = snapshotCounters(c); err != nil {
		return sampleReport{}, err
	}
	f, err := os.Create(profile)
	if err != nil {
		return sampleReport{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return sampleReport{}, err
	}
	book := newAnswers()
	run.tr.armed.Store(true)
	run.phase = runPhase(d.url(), w.stream(o.seed), w.clients, o.seconds, book)
	run.tr.armed.Store(false)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return sampleReport{}, err
	}
	if run.after, err = snapshotCounters(c); err != nil {
		return sampleReport{}, err
	}
	return checkSample(w, newClient(d.url(), book), book, o.seed), nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
