package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/scenario"
	"github.com/spechpc/spechpc-sim/internal/sim/psim"
)

// counters is a snapshot of the process- and daemon-wide counters the
// ledger reads as deltas over the traced phase.
type counters struct {
	stats  statsz
	mem    runtime.MemStats
	gcCPU  float64 // /cpu/classes/gc/total:cpu-seconds
	allCPU float64 // /cpu/classes/total:cpu-seconds
	psim   psim.Totals
}

func snapshotCounters(c *client) (counters, error) {
	var s counters
	if err := c.getJSON("/statsz", &s.stats); err != nil {
		return s, err
	}
	runtime.ReadMemStats(&s.mem)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	s.gcCPU, s.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	s.psim = psim.Snapshot()
	return s, nil
}

// tracedRun is everything the ledger is computed from.
type tracedRun struct {
	workload       string
	seed           uint64
	phase          phaseResult
	untracedJobsPS float64
	before, after  counters
	tr             *tracer
	cpu            map[string]float64
	cpuTotal       time.Duration
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(r *tracedRun) (map[string]float64, error) {
	m := map[string]float64{}
	ph := r.phase
	reqs := float64(len(ph.outcomes))
	jobs := float64(ph.jobs())
	tr := r.tr

	m["bench.requests"] = reqs
	m["trace.overhead_frac"] = 1 - ratio(ph.jobsPerSecond(), r.untracedJobsPS)

	// service: the HTTP middleware.
	var submit, poll []float64
	var bytes int64
	var non2xx int
	for _, h := range tr.http {
		switch {
		case h.method == "POST":
			submit = append(submit, ms(h.dur))
		case h.method == "GET" && strings.Contains(h.pattern, "{id}"):
			poll = append(poll, ms(h.dur))
		}
		bytes += h.bytes
		if h.status/100 != 2 {
			non2xx++
		}
	}
	m["service.submit_ms_p50"] = pct(submit, 50)
	m["service.submit_ms_tail"] = tailOf(submit).Value
	m["service.poll_ms_p50"] = pct(poll, 50)
	m["service.polls_per_request"] = ratio(float64(len(poll)), reqs)
	m["service.resp_kb_per_request"] = ratio(float64(bytes)/1024, reqs)
	m["service.non2xx"] = float64(non2xx)

	// campaign: /statsz deltas, and the runner wrapper for grants.
	b, a := r.before.stats.Campaign, r.after.stats.Campaign
	m["campaign.memo_hits"] = float64(a.MemoHits - b.MemoHits)
	m["campaign.coalesced"] = float64(a.Coalesced - b.Coalesced)
	m["campaign.store_hits"] = float64(a.StoreHits - b.StoreHits)
	m["campaign.fresh_sims"] = float64(a.FreshSims - b.FreshSims)
	m["campaign.surrogate_hits"] = float64(a.SurrogateHits - b.SurrogateHits)
	m["campaign.surrogate_refused"] = float64(a.SurrogateRefused - b.SurrogateRefused)
	m["campaign.surrogate_misses"] = float64(a.SurrogateMisses - b.SurrogateMisses)
	dJobs := float64(a.Jobs - b.Jobs)
	m["campaign.hit_ratio"] = ratio(dJobs-m["campaign.fresh_sims"], dJobs)
	exps := map[string]expansion{}
	for _, o := range ph.outcomes {
		if o.kind == opDoc && o.err == nil {
			exp, err := expandDoc(o.doc)
			if err != nil {
				return nil, err
			}
			exps[o.doc.name()] = exp
		}
	}
	m["campaign.wait_ms_p50"] = pct(queueWaits(r, exps), 50)
	grants := 0
	for _, rs := range tr.runs {
		if rs.granted {
			grants++
		}
	}
	m["campaign.grants"] = float64(grants)

	// store: the Store wrapper.
	var gets, puts []float64
	hits, putBytes := 0, 0
	for _, g := range tr.gets {
		gets = append(gets, ms(g.dur()))
		if g.hit {
			hits++
		}
	}
	for _, p := range tr.puts {
		puts = append(puts, ms(p.dur()))
		putBytes += p.bytes
	}
	m["store.get_ms_p50"] = pct(gets, 50)
	m["store.get_ms_tail"] = tailOf(gets).Value
	m["store.get_hit_ratio"] = ratio(float64(hits), float64(len(gets)))
	m["store.put_ms_p50"] = pct(puts, 50)
	m["store.gets"] = float64(len(gets))
	m["store.puts"] = float64(len(puts))
	m["store.record_kb"] = ratio(float64(putBytes)/1024, float64(len(puts)))

	// surrogate: the predictor wrapper.
	var predicts, observes []float64
	answered := 0
	for _, p := range tr.predicts {
		predicts = append(predicts, float64(p.dur())/float64(time.Microsecond))
		if p.answered {
			answered++
		}
	}
	for _, d := range tr.observes {
		observes = append(observes, float64(d)/float64(time.Microsecond))
	}
	m["surrogate.predict_us_p50"] = pct(predicts, 50)
	m["surrogate.observe_us_p50"] = pct(observes, 50)
	m["surrogate.answer_ratio"] = ratio(float64(answered), float64(len(predicts)))
	if s := r.after.stats.Surrogate; s != nil {
		m["surrogate.models"] = float64(s.Models)
	}

	// scenario: the benchmark's own Parse/ExpandParts calls, and the lag
	// from a document's last runner return to the client seeing it done.
	var parse, expand, perDoc, lags []float64
	for _, o := range ph.outcomes {
		exp, ok := exps[o.doc.name()]
		if o.kind != opDoc || !ok {
			continue
		}
		parse = append(parse, ms(exp.parse))
		expand = append(expand, ms(exp.expand))
		perDoc = append(perDoc, float64(len(exp.keys)))
		var last time.Time
		for _, rs := range tr.runs {
			if exp.keys[rs.key] && rs.end.After(last) && !rs.end.Before(o.start) {
				last = rs.end
			}
		}
		if !last.IsZero() {
			lags = append(lags, ms(o.done.Sub(last)))
		}
	}
	m["scenario.parse_ms"] = pct(parse, 50)
	m["scenario.expand_ms"] = pct(expand, 50)
	m["scenario.jobs_per_doc"] = mean(perDoc)
	m["scenario.render_lag_ms"] = pct(lags, 50)

	// spec: the runner wrapper.
	var runMS []float64
	var coreS, hostS float64
	for _, rs := range tr.runs {
		runMS = append(runMS, ms(rs.dur()))
		coreS += rs.coreS
		hostS += rs.dur().Seconds()
	}
	m["spec.run_ms_p50"] = pct(runMS, 50)
	m["spec.run_ms_tail"] = tailOf(runMS).Value
	m["spec.runs"] = float64(len(tr.runs))
	m["spec.sim_core_s_per_s"] = ratio(coreS, hostS)

	// psim: process-wide window totals, plus per-run node counts.
	pb, pa := r.before.psim, r.after.psim
	pruns := float64(pa.Runs - pb.Runs)
	windows := float64(pa.Windows - pb.Windows)
	var partWindows float64
	for _, rs := range tr.runs {
		if rs.granted {
			partWindows += float64(rs.windows) * float64(rs.nodes)
		}
	}
	m["psim.runs"] = pruns
	m["psim.windows_per_run"] = ratio(windows, pruns)
	m["psim.mail_per_run"] = ratio(float64(pa.Mail-pb.Mail), pruns)
	m["psim.idle_frac"] = ratio(float64(pa.IdleParts-pb.IdleParts), partWindows)
	m["psim.widened_frac"] = ratio(float64(pa.AdaptiveWindows-pb.AdaptiveWindows), windows)

	// go: MemStats and runtime/metrics deltas.
	mb, ma := r.before.mem, r.after.mem
	m["go.allocs_per_job"] = ratio(float64(ma.Mallocs-mb.Mallocs), jobs)
	m["go.alloc_mb_per_job"] = ratio(float64(ma.TotalAlloc-mb.TotalAlloc)/1e6, jobs)
	m["go.gc_cycles"] = float64(ma.NumGC - mb.NumGC)
	m["go.gc_cpu_frac"] = ratio(r.after.gcCPU-r.before.gcCPU, r.after.allCPU-r.before.allCPU)

	for _, bk := range cpuBuckets {
		m["cpu."+bk.name] = r.cpu[bk.name]
	}
	return m, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// expansion is one document as the benchmark itself parses and expands
// it with the service's planner settings.
type expansion struct {
	parse, expand time.Duration
	keys          map[string]bool
}

func expandDoc(d docReq) (expansion, error) {
	t0 := time.Now()
	sc, err := scenario.Parse(d.body(), d.name())
	t1 := time.Now()
	if err != nil {
		return expansion{}, err
	}
	sweeps, pinned, err := (&scenario.Planner{}).ExpandParts(sc)
	t2 := time.Now()
	if err != nil {
		return expansion{}, err
	}
	e := expansion{parse: t1.Sub(t0), expand: t2.Sub(t1), keys: map[string]bool{}}
	for _, b := range sweeps {
		for _, rs := range b {
			e.keys[campaign.Key(rs)] = true
		}
	}
	for _, rs := range pinned {
		e.keys[campaign.Key(rs)] = true
	}
	return e, nil
}

// queueWaits is campaign.wait_ms per (request, key): the time from the
// request's submit to the key's completion, minus the runner, store and
// predictor spans of that key — what is left is time spent queued (and,
// for single jobs, in HTTP and polling). A single job completes when its
// client holds the answer; a document's job completes at its key's last
// span.
func queueWaits(r *tracedRun, exps map[string]expansion) []float64 {
	spans := map[string][]span{}
	add := func(s span) { spans[s.key] = append(spans[s.key], s) }
	for _, s := range r.tr.runs {
		add(s.span)
	}
	for _, s := range r.tr.gets {
		add(s.span)
	}
	for _, s := range r.tr.puts {
		add(s.span)
	}
	for _, s := range r.tr.predicts {
		add(s.span)
	}
	wait := func(key string, start, end time.Time, open bool) (float64, bool) {
		var busy time.Duration
		var last time.Time
		for _, s := range spans[key] {
			if s.start.Before(start) || s.end.After(end) {
				continue
			}
			busy += s.dur()
			if s.end.After(last) {
				last = s.end
			}
		}
		if open {
			if last.IsZero() {
				return 0, false
			}
			end = last
		}
		return ms(end.Sub(start) - busy), true
	}
	var out []float64
	for _, o := range r.phase.outcomes {
		if o.err != nil {
			continue
		}
		if o.kind != opDoc {
			w, _ := wait(o.key, o.start, o.end, false)
			out = append(out, w)
			continue
		}
		for key := range exps[o.doc.name()].keys {
			if w, ok := wait(key, o.start, o.end, true); ok {
				out = append(out, w)
			}
		}
	}
	return out
}

// roleCheck is one assertion about what a workload loads.
type roleCheck struct {
	ok   bool
	what string
}

// roleChecks confirms each workload's role from its traced run.
func roleChecks(workload string, m map[string]float64) []roleCheck {
	sum := func(names []string) float64 {
		s := 0.0
		for _, n := range names {
			s += m["cpu."+n]
		}
		return s
	}
	checks := []roleCheck{{m["cpu.other"] < 0.10,
		fmt.Sprintf("named cpu buckets hold >= 90%% of samples (cpu.other = %.3f)", m["cpu.other"])}}
	switch workload {
	case "multinode-cold":
		s := sum(simBuckets)
		checks = append(checks,
			roleCheck{s > 0.5, fmt.Sprintf("simulator buckets hold the majority (%.3f)", s)},
			roleCheck{m["campaign.grants"] == m["bench.requests"],
				fmt.Sprintf("campaign.grants equals requests (%g vs %g)", m["campaign.grants"], m["bench.requests"])})
	case "sweep-cold":
		checks = append(checks, roleCheck{m["campaign.grants"] == 0,
			fmt.Sprintf("campaign.grants is 0 (%g)", m["campaign.grants"])})
	case "serve-mix":
		srv, sim := sum(servingBuckets), sum(simulatorBuckets)
		checks = append(checks, roleCheck{srv > sim,
			fmt.Sprintf("serving buckets hold more than simulator buckets (%.3f vs %.3f)", srv, sim)})
	}
	return checks
}

// writeLedger renders the per-layer ledger of a traced run.
func writeLedger(w io.Writer, r *tracedRun, m map[string]float64, seconds float64) {
	fmt.Fprintf(w, "# per-layer ledger: %s, seed %d\n", r.workload, r.seed)
	fmt.Fprintf(w, "# generated by: bash perfbench/run.sh --workload %s --seed %d --seconds %g --trace 1\n",
		r.workload, r.seed, seconds)
	fmt.Fprintf(w, "# host: %s/%s, %d CPUs, GOMAXPROCS %d, %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "# traced phase %.2f s, %d requests, %d campaign jobs, %.2f s CPU profiled\n",
		r.phase.elapsed.Seconds(), len(r.phase.outcomes), r.phase.jobs(), r.cpuTotal.Seconds())
	fmt.Fprintf(w, "# tracing overhead: jobs_per_s %.4g untraced, %.4g traced (%.1f%%)\n",
		r.untracedJobsPS, r.phase.jobsPerSecond(), 100*m["trace.overhead_frac"])
	fmt.Fprintf(w, "%-30s %14s  %-6s  %s\n", "metric", "value", "unit", "should move")
	for _, mt := range allPerLayer() {
		fmt.Fprintf(w, "%-30s %14.6g  %-6s  %s\n", mt.name, m[mt.name], mt.unit, mt.moves)
	}
	fmt.Fprintln(w, "# roles")
	for _, c := range roleChecks(r.workload, m) {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s %s\n", verdict, c.what)
	}
}
