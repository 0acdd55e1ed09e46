package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"

	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/netsim"
	"github.com/spechpc/spechpc-sim/internal/spec"
)

// jobReq is the POST /api/v1/jobs body.
type jobReq struct {
	Benchmark string  `json:"benchmark"`
	Cluster   string  `json:"cluster"`
	Class     string  `json:"class"`
	Ranks     int     `json:"ranks"`
	ClockGHz  float64 `json:"clock_ghz,omitempty"`
	SimSteps  int     `json:"sim_steps"`
	Mode      string  `json:"mode,omitempty"`
}

// docReq is one scenario document: a node-scaling sweep (spec.NodePoints)
// of some kernels on the clusters, tiny class, one simulated step. Round
// r > 0 re-asks the same sweep on a fabric whose inter-node latency is
// shifted by r×10 ns: single-node jobs never cross the fabric, so the
// work is the same while every key is new and therefore cold.
type docReq struct {
	Kernels  []string
	Clusters []string
	Round    int
}

func (d docReq) name() string {
	return fmt.Sprintf("sweep-%s-r%d", strings.Join(d.Kernels, "-"), d.Round)
}

// body renders the document in the docs/SCENARIOS.md format.
func (d docReq) body() []byte {
	type net struct {
		InterNodeLatencyUs float64 `json:"inter_node_latency_us"`
	}
	type sweep struct {
		Benchmarks []string `json:"benchmarks"`
		Clusters   []string `json:"clusters"`
		Class      string   `json:"class"`
		Points     string   `json:"points"`
		SimSteps   int      `json:"sim_steps"`
		Net        *net     `json:"net,omitempty"`
	}
	sw := sweep{Benchmarks: d.Kernels, Clusters: d.Clusters,
		Class: "tiny", Points: "node", SimSteps: 1}
	if d.Round > 0 {
		sw.Net = &net{InterNodeLatencyUs: netsim.HDR100().InterNodeLatency*1e6 + 0.01*float64(d.Round)}
	}
	b, _ := json.Marshal(struct {
		Name   string  `json:"name"`
		Sweeps []sweep `json:"sweeps"`
	}{d.name(), []sweep{sw}}) // plain structs: Marshal cannot fail
	return b
}

type opKind int

const (
	opWarm  opKind = iota // exact job on a key of the warm grid
	opFast                // mode=fast job at an off-grid rank count
	opCold                // exact job on a key nobody asked for yet
	opDoc                 // scenario document
	opMulti               // exact multi-node job
)

// op is one request of the stream.
type op struct {
	kind opKind
	job  jobReq
	doc  docReq
}

// round is one step of the closed loop. Every client waits for the
// others at the start of a round; then all fire pair (if any) at once,
// and then each works through its own ops.
type round struct {
	pair *op
	ops  [][]op // one list per client
}

// stream is a workload's request stream: round i depends only on the
// seed and i. Rounds are generated on first use and cached, so clients
// may read them concurrently.
type stream struct {
	mu     sync.Mutex
	next   func() round
	rounds []round
}

func newStream(next func() round) *stream { return &stream{next: next} }

func (s *stream) round(i int) round {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.rounds) <= i {
		s.rounds = append(s.rounds, s.next())
	}
	return s.rounds[i]
}

// rng derives the generator of one workload stream from the seed.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// family is one (kernel, cluster) pair.
type family struct{ kernel, cluster string }

// offGrid lists the rank counts of one node that the node-level sweep
// ladder skips: the points a fitted surrogate interpolates.
func offGrid(cs *machine.ClusterSpec) []int {
	on := map[int]bool{}
	for _, p := range spec.NodePoints(cs) {
		on[p] = true
	}
	var out []int
	for r := 1; r <= cs.CPU.CoresPerNode(); r++ {
		if !on[r] {
			out = append(out, r)
		}
	}
	return out
}

// tinyJob is a one-step tiny-class job.
func tinyJob(kernel, cluster string, ranks int, mode string) jobReq {
	return jobReq{Benchmark: kernel, Cluster: cluster, Class: "tiny", Ranks: ranks, SimSteps: 1, Mode: mode}
}

// serveMix is the daemon's query traffic against warm state: two
// clients, and per round one cold exact job both submit at once (so the
// second coalesces onto the first) followed by each client's mix of
// warm-grid exact jobs and mode=fast queries.
type serveMix struct {
	// grid kernels are simulated on both clusters at every spec.NodePoints
	// rank count during set-up; warm ops ask for these keys again.
	grid     []string
	clusters []string
	// fast families get mode=fast queries at off-grid rank counts, and the
	// cold jobs at off-grid rank counts that make their models refit.
	// They are the families whose error bounds hold under refits.
	fast []family
	// perClient ops per client per round, fastPerClient of them mode=fast.
	perClient, fastPerClient int
}

var defaultServeMix = serveMix{
	grid:          []string{"soma", "weather", "tealeaf", "cloverleaf"},
	clusters:      []string{"ClusterA", "ClusterB"},
	fast:          []family{{"soma", "ClusterB"}, {"weather", "ClusterB"}},
	perClient:     24,
	fastPerClient: 7,
}

// gridJobs is the warm grid the set-up simulates.
func (w serveMix) gridJobs() []jobReq {
	var out []jobReq
	for _, c := range w.clusters {
		cs := machine.MustGet(c)
		for _, k := range w.grid {
			for _, r := range spec.NodePoints(cs) {
				out = append(out, tinyJob(k, c, r, ""))
			}
		}
	}
	return out
}

// keyPool hands out jobs in seeded order without replacement; a pool
// that runs dry starts over, and its repeats become memo hits.
type keyPool struct {
	jobs  []jobReq
	order []int
}

func (p *keyPool) draw(r *rand.Rand) jobReq {
	if len(p.order) == 0 {
		p.order = r.Perm(len(p.jobs))
	}
	j := p.jobs[p.order[0]]
	p.order = p.order[1:]
	return j
}

func (w serveMix) stream(seed uint64, clients int) *stream {
	r := rng(seed, 1)
	grid := w.gridJobs()
	// Every fourth cold job falls in a fast family at an off-grid rank
	// count, so a model refits while it is being queried. The others are
	// off-grid rank counts of the remaining grid families, and every rank
	// count of them at the other DVFS ladder clocks: a pool no run drains.
	var fast []jobReq
	var fastCold, otherCold keyPool
	isFast := map[family]bool{}
	for _, f := range w.fast {
		isFast[f] = true
		for _, rk := range offGrid(machine.MustGet(f.cluster)) {
			fast = append(fast, tinyJob(f.kernel, f.cluster, rk, "fast"))
			fastCold.jobs = append(fastCold.jobs, tinyJob(f.kernel, f.cluster, rk, ""))
		}
	}
	for _, c := range w.clusters {
		cs := machine.MustGet(c)
		for _, k := range w.grid {
			if isFast[family{k, c}] {
				continue
			}
			for _, rk := range offGrid(cs) {
				otherCold.jobs = append(otherCold.jobs, tinyJob(k, c, rk, ""))
			}
			for _, hz := range cs.CPU.DVFS.Ladder() {
				if hz == cs.CPU.BaseClockHz {
					continue
				}
				for rk := 1; rk <= cs.CPU.CoresPerNode(); rk++ {
					j := tinyJob(k, c, rk, "")
					j.ClockGHz = hz / 1e9
					otherCold.jobs = append(otherCold.jobs, j)
				}
			}
		}
	}
	n := 0
	return newStream(func() round {
		pool := &otherCold
		if len(fastCold.jobs) > 0 && (n%4 == 0 || len(otherCold.jobs) == 0) {
			pool = &fastCold
		}
		n++
		pair := op{kind: opCold, job: pool.draw(r)}
		rd := round{pair: &pair, ops: make([][]op, clients)}
		for c := range rd.ops {
			ops := make([]op, w.perClient)
			for i := range ops {
				if i < w.fastPerClient && len(fast) > 0 {
					ops[i] = op{kind: opFast, job: fast[r.IntN(len(fast))]}
				} else {
					ops[i] = op{kind: opWarm, job: grid[r.IntN(len(grid))]}
				}
			}
			r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			rd.ops[c] = ops
		}
		return rd
	})
}

// sweepCold is the node-level sweep path of the paper's Figs. 1-4 on an
// empty store: one client, one scenario document at a time. A document is
// one figure: the node sweeps of a group of kernels on both clusters. A
// round asks every group once, in seeded order. The groups pair one
// expensive kernel with cheaper ones so that every document costs about
// the same; with documents of one kernel each, the median document sits
// on the step between two kernels of different cost and jumps with host
// noise.
type sweepCold struct {
	groups   [][]string
	clusters []string
}

var defaultSweepCold = sweepCold{
	groups: [][]string{
		{"minisweep", "pot3d", "weather"},
		{"hpgmgfv", "soma", "tealeaf"},
		{"sph-exa", "cloverleaf", "lbm"},
	},
	clusters: []string{"ClusterA", "ClusterB"},
}

func (w sweepCold) stream(seed uint64) *stream {
	r := rng(seed, 2)
	n := 0
	return newStream(func() round {
		var docs []op
		for _, g := range w.groups {
			docs = append(docs, op{kind: opDoc, doc: docReq{Kernels: g, Clusters: w.clusters, Round: n}})
		}
		r.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		n++
		return round{ops: [][]op{docs}}
	})
}

// multinodeCold is the multi-node scaling path of the paper's Figs. 5-6:
// exact small-class jobs on whole nodes of both clusters, one at a time
// from one client on an empty store, so the scheduler's automatic grant
// hands each job the full worker pool. A round runs every kernel × node
// count × cluster once, and the jobs in more that many times in all, in
// seeded order. Every run of a job takes the next clock of its cluster's
// DVFS ladder, the base clock first, so its keys are new.
//
// A round is 48 jobs long, so the tail rule reads p75 whether a run
// finishes one round or two (it reads p75 for 40 to 99 samples). With
// one run of each job (30 a round) it read p50 after one round and p75
// after two, and the value jumped with the speed of the host. The jobs
// in more are the ones whose cost sits at the round's median and 75th
// percentile: the 16-node lbm, pot3d and tealeaf jobs, and minisweep on
// 4 nodes and hpgmgfv on 8 nodes of ClusterA. Running them again puts
// both percentiles among many samples of about the same cost instead of
// on the step between two kernels.
type multinodeCold struct {
	kernels  []string
	nodes    []int
	clusters []string
	more     map[nodeJob]int
}

// nodeJob is one kernel on a number of whole nodes of a cluster.
type nodeJob struct {
	kernel, cluster string
	nodes           int
}

var defaultMultinodeCold = multinodeCold{
	kernels:  []string{"lbm", "pot3d", "tealeaf", "hpgmgfv", "minisweep"},
	nodes:    []int{4, 8, 16},
	clusters: []string{"ClusterA", "ClusterB"},
	more: map[nodeJob]int{
		{"lbm", "ClusterA", 16}: 3, {"pot3d", "ClusterA", 16}: 3, {"tealeaf", "ClusterA", 16}: 3,
		{"lbm", "ClusterB", 16}: 3, {"pot3d", "ClusterB", 16}: 3, {"tealeaf", "ClusterB", 16}: 3,
		{"minisweep", "ClusterA", 4}: 4, {"hpgmgfv", "ClusterA", 8}: 4,
	},
}

func (w multinodeCold) stream(seed uint64) *stream {
	r := rng(seed, 3)
	runs := map[nodeJob]int{}
	return newStream(func() round {
		var jobs []op
		for _, c := range w.clusters {
			cs := machine.MustGet(c)
			var clocks []float64
			for _, hz := range cs.CPU.DVFS.Ladder() {
				if hz != cs.CPU.BaseClockHz {
					clocks = append(clocks, hz/1e9)
				}
			}
			for _, k := range w.kernels {
				for _, nodes := range w.nodes {
					j := nodeJob{k, c, nodes}
					for range max(1, w.more[j]) {
						clock := 0.0
						if i := runs[j]; i > 0 {
							clock = clocks[(i-1)%len(clocks)]
						}
						runs[j]++
						jobs = append(jobs, op{kind: opMulti, job: jobReq{Benchmark: k, Cluster: c,
							Class: "small", Ranks: nodes * cs.CPU.CoresPerNode(), ClockGHz: clock, SimSteps: 1}})
					}
				}
			}
		}
		r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		return round{ops: [][]op{jobs}}
	})
}
