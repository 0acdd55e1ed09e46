package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// runSpec resolves a job request the way the service does, pinned to the
// serial engine.
func runSpec(j jobReq) (spec.RunSpec, error) {
	cs, err := machine.Get(j.Cluster)
	if err != nil {
		return spec.RunSpec{}, err
	}
	class := bench.Tiny
	if j.Class == "small" {
		class = bench.Small
	}
	return spec.RunSpec{Benchmark: j.Benchmark, Class: class, Cluster: cs, Ranks: j.Ranks,
		ClockHz: j.ClockGHz * 1e9, Options: bench.Options{SimSteps: j.SimSteps}}, nil
}

// sampleReport is the outcome of the correctness sample.
type sampleReport struct {
	exact, fast int // answers re-derived
	errs        []error
}

// checkSample re-derives a seeded sample of the served answers directly
// from spec.Run, serially: exact answers must match the served usage
// exactly (on multi-node jobs this also pins the partitioned engine to
// the serial one), and surrogate answers must lie within their declared
// bound of the exact value. Documents are sampled through their round-0
// jobs, which a client can ask for again as single jobs: the daemon
// serves them from its memo.
func checkSample(w *workload, c *client, book *answers, seed uint64) sampleReport {
	r := rng(seed, 4)
	var rep sampleReport
	if len(book.docs) > 0 {
		var jobs []jobReq
		for _, d := range book.docs {
			if d.Round != 0 {
				continue
			}
			for _, k := range d.Kernels {
				for _, c := range d.Clusters {
					for _, rk := range spec.NodePoints(machine.MustGet(c)) {
						jobs = append(jobs, tinyJob(k, c, rk, ""))
					}
				}
			}
		}
		sortJobs(jobs)
		for _, i := range pick(r, len(jobs), w.exactSample) {
			if o := c.job(opWarm, jobs[i]); o.err != nil {
				rep.errs = append(rep.errs, o.err)
			}
		}
	}

	keys := append([]string(nil), book.keys...)
	sort.Strings(keys)
	for _, i := range pick(r, len(keys), w.exactSample) {
		ans := book.exact[keys[i]]
		res, err := runDirect(ans.req)
		switch {
		case err != nil:
			rep.errs = append(rep.errs, err)
		case !reflect.DeepEqual(res.Usage, ans.usage):
			rep.errs = append(rep.errs, fmt.Errorf("wrong answer: %s/%s/%d: served usage differs from serial spec.Run",
				ans.req.Benchmark, ans.req.Cluster, ans.req.Ranks))
		}
		rep.exact++
	}

	var fast []fastAnswer
	for _, f := range book.fast {
		fast = append(fast, f)
	}
	sort.Slice(fast, func(i, j int) bool { return lessJob(fast[i].req, fast[j].req) })
	for _, i := range pick(r, len(fast), w.fastSample) {
		f := fast[i]
		res, err := runDirect(f.req)
		if err != nil {
			rep.errs = append(rep.errs, err)
		} else if e := surrogateError(f.usage, res.Usage); e > f.bound {
			rep.errs = append(rep.errs, fmt.Errorf("wrong answer: fast %s/%s/%d off by %.4f, bound %.4f",
				f.req.Benchmark, f.req.Cluster, f.req.Ranks, e, f.bound))
		}
		rep.fast++
	}
	return rep
}

func runDirect(j jobReq) (spec.RunResult, error) {
	rs, err := runSpec(j)
	if err != nil {
		return spec.RunResult{}, err
	}
	return spec.Run(rs)
}

// surrogateError is the largest relative error of wall time, total
// energy and EDP: the quantities a surrogate bound covers.
func surrogateError(pred, act machine.Usage) float64 {
	rel := func(p, a float64) float64 { return math.Abs(p-a) / math.Abs(a) }
	pe, ae := pred.ChipEnergy+pred.DRAMEnergy, act.ChipEnergy+act.DRAMEnergy
	return max(rel(pred.Wall, act.Wall), rel(pe, ae), rel(pe*pred.Wall, ae*act.Wall))
}

// pick draws min(k, n) distinct indices of n.
func pick(r *rand.Rand, n, k int) []int {
	if n == 0 {
		return nil
	}
	return r.Perm(n)[:min(k, n)]
}

func lessJob(a, b jobReq) bool {
	if a.Benchmark != b.Benchmark {
		return a.Benchmark < b.Benchmark
	}
	if a.Cluster != b.Cluster {
		return a.Cluster < b.Cluster
	}
	return a.Ranks < b.Ranks
}

func sortJobs(js []jobReq) { sort.Slice(js, func(i, j int) bool { return lessJob(js[i], js[j]) }) }
