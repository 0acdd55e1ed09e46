package surrogate

import (
	"fmt"
	"math"
	"sort"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/dvfs"
	"github.com/spechpc/spechpc-sim/internal/machine"
	"github.com/spechpc/spechpc-sim/internal/spec"
	"github.com/spechpc/spechpc-sim/internal/trace"
)

// The interpolated quantities of one job, in a fixed order shared by
// samples, fitted curves, and predictions. Wall, the two energies, and
// everything derived from them (power, EDP) are the headline outputs;
// the flop/traffic/time-partition totals exist so a synthesized Usage
// supports every generic metric the scenario renderer knows.
const (
	qWall = iota
	qFlopsScalar
	qFlopsSIMD
	qBytesL2
	qBytesL3
	qBytesMem
	qTimeExec
	qTimeStall
	qTimeMPI
	qChipE
	qDRAME
	nQuant
)

// sample is one observed exact result projected onto the fitted
// quantities: a (ranks, clock) grid point of a family.
type sample struct {
	ranks   int
	clockHz float64
	vals    [nQuant]float64
}

// newSample projects a Usage onto the fitted quantities.
func newSample(ranks int, clockHz float64, u machine.Usage) sample {
	return sample{ranks: ranks, clockHz: clockHz, vals: [nQuant]float64{
		qWall:        u.Wall,
		qFlopsScalar: u.FlopsScalar,
		qFlopsSIMD:   u.FlopsSIMD,
		qBytesL2:     u.BytesL2,
		qBytesL3:     u.BytesL3,
		qBytesMem:    u.BytesMem,
		qTimeExec:    u.TimeExec,
		qTimeStall:   u.TimeStall,
		qTimeMPI:     u.TimeMPI,
		qChipE:       u.ChipEnergy,
		qDRAME:       u.DRAMEnergy,
	}}
}

// clockFit is the fitted frequency response at one sampled rank count.
// Wall follows the two-component DVFS form t0 + t1/f (clock-bound work
// scales with the core clock, memory/network work does not); chip
// energy follows (e0 + e1*kappa(f)) * wall(f) with kappa the cluster's
// CMOS power factor (baseline power flat, core dynamic power scaling
// super-linearly); DRAM energy is d0*wall(f) + d1 (idle power times
// wall plus a traffic term independent of the clock).
type clockFit struct {
	rank   float64
	wall   linFit // x = 1/f
	chip   linFit // x = kappa(f), y = chipE/wall
	dram   linFit // x = wall,     y = dramE
	refW   float64
	refE   float64
	refD   float64
	refKap float64
}

// fitClock fits the frequency response from >= minClockPoints samples
// at one rank.
func fitClock(rank int, ss []sample, dv dvfs.Model, baseHz float64) clockFit {
	n := len(ss)
	xsInv := make([]float64, n)
	xsKap := make([]float64, n)
	ws := make([]float64, n)
	pw := make([]float64, n)
	de := make([]float64, n)
	for i, s := range ss {
		xsInv[i] = 1 / s.clockHz
		xsKap[i] = dv.PowerFactor(s.clockHz)
		ws[i] = s.vals[qWall]
		pw[i] = s.vals[qChipE] / s.vals[qWall]
		de[i] = s.vals[qDRAME]
	}
	cf := clockFit{rank: float64(rank)}
	cf.wall = fitLine(xsInv, ws)
	cf.chip = fitLine(xsKap, pw)
	cf.dram = fitLine(ws, de)
	cf.refKap = dv.PowerFactor(baseHz)
	cf.refW = cf.wall.at(1 / baseHz)
	cf.refE = cf.chip.at(cf.refKap) * cf.refW
	cf.refD = cf.dram.at(cf.refW)
	return cf
}

// ratio returns the multiplicative frequency response of quantity q at
// clock hz, relative to the family's base clock. Zero allocs.
func (cf *clockFit) ratio(q int, hz float64, dv *dvfs.Model) float64 {
	w := cf.wall.at(1 / hz)
	switch q {
	case qWall, qTimeExec, qTimeStall, qTimeMPI:
		return safeRatio(w, cf.refW)
	case qChipE:
		return safeRatio(cf.chip.at(dv.PowerFactor(hz))*w, cf.refE)
	case qDRAME:
		return safeRatio(cf.dram.at(w), cf.refD)
	default:
		// Flop and traffic totals are clock-independent by construction.
		return 1
	}
}

func safeRatio(num, den float64) float64 {
	if den <= 0 || num <= 0 {
		return 1
	}
	return num / den
}

// Model is one family's fitted surrogate: monotone PCHIP curves over
// the rank axis at the cluster's base clock, composed with per-rank
// DVFS-form frequency responses, plus the self-reported relative error
// bound derived by leave-one-out refitting. A Model is immutable after
// fitting; Predict is safe for concurrent use and allocation-free.
type Model struct {
	fam    spec.RunSpec // family-normalized spec (Ranks=0, ClockHz=0)
	report bench.RunReport
	dv     dvfs.Model
	baseHz float64

	rankX  []float64  // sorted rank grid at baseHz
	curves curveSet   // every quantity's PCHIP curve over rankX
	clocks []clockFit // sorted by rank; empty = rank axis only

	minHz, maxHz float64 // fitted clock hull (baseHz only when clocks empty)

	// knotErr is the local leave-one-out relative error at each rank
	// knot (worst of wall, total energy, EDP when that knot is held
	// out and the curve refitted; endpoints inherit their neighbour's).
	// A query's bound is built from the errors bracketing it, so a
	// model that is tight where the grid is dense and loose where it
	// is sparse refuses only the sparse region instead of everything.
	knotErr []float64
	// clockErr is the worst clock-axis LOO error (zero-cost exact at
	// base clock; added to the rank term for off-base queries). When
	// no ladder is dense enough to probe, a conservative prior is used.
	clockErr float64

	// Bound is the model's worst-case self-reported relative error
	// bound over the whole fitted hull: the largest per-query bound
	// Predict can report. Individual predictions usually carry a
	// tighter local bound.
	Bound float64
}

// Fitting thresholds: a rank curve needs enough points for cubic
// interpolation plus interior LOO probes; a clock fit needs enough
// ladder points to over-determine the two-parameter forms.
const (
	minRankPoints  = 4
	minClockPoints = 3
	boundSafety    = 1.5
	boundFloor     = 0.01
	// clockErrPrior is assumed for off-base queries when every sampled
	// ladder was too sparse (exactly minClockPoints) to hold a point
	// out: the two-parameter DVFS forms are strongly structured, but an
	// unprobed fit should not claim floor-level accuracy.
	clockErrPrior = 0.05
)

// fitModel fits one family from its samples, or returns nil when the
// rank grid at the base clock is too sparse to interpolate.
func fitModel(fam spec.RunSpec, report bench.RunReport, samples []sample) *Model {
	if fam.Cluster == nil {
		return nil
	}
	base := fam.Cluster.CPU.BaseClockHz
	m := &Model{fam: fam, report: report, dv: fam.Cluster.CPU.DVFS, baseHz: base}

	byRank := make(map[int][]sample)
	refByRank := make(map[int]sample)
	for _, s := range samples {
		byRank[s.ranks] = append(byRank[s.ranks], s)
		if s.clockHz == base {
			refByRank[s.ranks] = s
		}
	}
	if len(refByRank) < minRankPoints {
		return nil
	}
	ranks := make([]int, 0, len(refByRank))
	for r := range refByRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	m.rankX = make([]float64, len(ranks))
	ys := make([][]float64, nQuant)
	for q := range ys {
		ys[q] = make([]float64, len(ranks))
	}
	for i, r := range ranks {
		m.rankX[i] = float64(r)
		for q := 0; q < nQuant; q++ {
			ys[q][i] = refByRank[r].vals[q]
		}
	}
	var curves [nQuant]pchip
	for q := 0; q < nQuant; q++ {
		curves[q] = fitPCHIP(m.rankX, ys[q])
	}
	m.curves = newCurveSet(&curves)

	// Frequency responses at every rank with a sampled clock ladder.
	m.minHz, m.maxHz = base, base
	for r, ss := range byRank {
		if countClocks(ss) < minClockPoints {
			continue
		}
		m.clocks = append(m.clocks, fitClock(r, ss, m.dv, base))
		for _, s := range ss {
			m.minHz = math.Min(m.minHz, s.clockHz)
			m.maxHz = math.Max(m.maxHz, s.clockHz)
		}
	}
	sort.Slice(m.clocks, func(i, j int) bool { return m.clocks[i].rank < m.clocks[j].rank })

	m.fitErrors(refByRank, byRank, ys)
	maxKnot := 0.0
	for _, e := range m.knotErr {
		maxKnot = math.Max(maxKnot, e)
	}
	m.Bound = boundSafety*(maxKnot+m.clockErr) + boundFloor
	return m
}

func countClocks(ss []sample) int {
	seen := make(map[float64]bool, len(ss))
	for _, s := range ss {
		seen[s.clockHz] = true
	}
	return len(seen)
}

// fitErrors measures the model's own interpolation error by
// leave-one-out refitting and stores it per rank knot plus one
// clock-axis term: every interior rank point (and, where a clock
// ladder is dense enough, every off-base clock point) is held out, the
// affected axis refitted without it, and the held-out truth compared
// against the reduced model's prediction on wall, total energy, and
// EDP. Endpoints are never held out — removing one shrinks the hull,
// which is the refusal path, not the accuracy path — so they inherit
// their interior neighbour's error.
func (m *Model) fitErrors(refByRank map[int]sample, byRank map[int][]sample, ys [][]float64) {
	relErr := func(pred, act float64) float64 {
		if act == 0 {
			return 0
		}
		return abs(pred-act) / abs(act)
	}
	worst := func(pw, pe, aw, ae float64) float64 {
		e := relErr(pw, aw)
		e = math.Max(e, relErr(pe, ae))
		return math.Max(e, relErr(pe*pw, ae*aw)) // EDP
	}

	// Rank axis: hold out each interior grid point.
	n := len(m.rankX)
	m.knotErr = make([]float64, n)
	for i := 1; i < n-1; i++ {
		xs := make([]float64, 0, n-1)
		wallY := make([]float64, 0, n-1)
		chipY := make([]float64, 0, n-1)
		dramY := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			xs = append(xs, m.rankX[j])
			wallY = append(wallY, ys[qWall][j])
			chipY = append(chipY, ys[qChipE][j])
			dramY = append(dramY, ys[qDRAME][j])
		}
		q := m.rankX[i]
		pw := fitPCHIP(xs, wallY).eval(q)
		pe := fitPCHIP(xs, chipY).eval(q) + fitPCHIP(xs, dramY).eval(q)
		m.knotErr[i] = worst(pw, pe, ys[qWall][i], ys[qChipE][i]+ys[qDRAME][i])
	}
	m.knotErr[0] = m.knotErr[1]
	m.knotErr[n-1] = m.knotErr[n-2]

	// Clock axis: hold out each off-base point of each dense ladder.
	probed := false
	for _, cf := range m.clocks {
		r := int(cf.rank)
		ss := byRank[r]
		anchor, haveAnchor := refByRank[r]
		if !haveAnchor || countClocks(ss) <= minClockPoints {
			continue
		}
		for i, held := range ss {
			if held.clockHz == m.baseHz {
				continue
			}
			reduced := make([]sample, 0, len(ss)-1)
			for j, s := range ss {
				if j != i {
					reduced = append(reduced, s)
				}
			}
			rf := fitClock(r, reduced, m.dv, m.baseHz)
			pw := anchor.vals[qWall] * rf.ratio(qWall, held.clockHz, &m.dv)
			pe := anchor.vals[qChipE]*rf.ratio(qChipE, held.clockHz, &m.dv) +
				anchor.vals[qDRAME]*rf.ratio(qDRAME, held.clockHz, &m.dv)
			probed = true
			m.clockErr = math.Max(m.clockErr, worst(pw, pe, held.vals[qWall], held.vals[qChipE]+held.vals[qDRAME]))
		}
	}
	if len(m.clocks) > 0 && !probed {
		m.clockErr = clockErrPrior
	}
}

// boundAt returns the per-query error bound at a rank inside the hull,
// given its knot interval lo = interval(rankX, rank): the LOO errors of
// the two knots bracketing the rank, plus the clock-axis term for
// off-base clocks, scaled by the safety factor over the floor. Zero
// allocs.
func (m *Model) boundAt(lo int, offBase bool) float64 {
	e := max(m.knotErr[lo], m.knotErr[lo+1])
	if offBase {
		e += m.clockErr
	}
	return boundSafety*e + boundFloor
}

// Prediction is one analytic answer: the interpolated quantities plus
// the model's error bound. All fields are scalars, so the exact-path
// helpers below stay allocation-free.
type Prediction struct {
	Wall        float64
	FlopsScalar float64
	FlopsSIMD   float64
	BytesL2     float64
	BytesL3     float64
	BytesMem    float64
	TimeExec    float64
	TimeStall   float64
	TimeMPI     float64
	ChipEnergy  float64
	DRAMEnergy  float64
	Bound       float64
}

// TotalEnergy returns chip+DRAM energy (J).
func (p Prediction) TotalEnergy() float64 { return p.ChipEnergy + p.DRAMEnergy }

// EDP returns the energy-delay product (J*s).
func (p Prediction) EDP() float64 { return p.TotalEnergy() * p.Wall }

// Ranks returns the fitted rank hull [min, max].
func (m *Model) Ranks() (min, max int) {
	return int(m.rankX[0]), int(m.rankX[len(m.rankX)-1])
}

// Clocks returns the fitted clock hull [min, max] in Hz; min == max
// means the model only covers the base clock.
func (m *Model) Clocks() (min, max float64) { return m.minHz, m.maxHz }

// normClock maps a query clock onto the family grid: zero means the
// base clock, anything else snaps onto the cluster's DVFS ladder the
// same way spec.Run would. The bool is false when the clock cannot run
// on this cluster at all (out of ladder range, or DVFS disabled) — the
// simulator owns producing that error.
func (m *Model) normClock(hz float64) (float64, bool) {
	if hz == 0 {
		return m.baseHz, true
	}
	d := &m.dv
	if !d.Enabled() || hz < d.MinHz || hz > d.MaxHz {
		return 0, false
	}
	return d.Quantize(hz), true
}

// Predict evaluates the model at a (ranks, clock) point. It returns a
// campaign.ErrRefused-wrapped error when the point extrapolates outside
// the fitted hull on either axis; inside the hull the call performs no
// heap allocation (one knot-interval search shared by every quantity
// and the bound, plus scalar arithmetic), which is what lets the fast
// tier answer in sub-microsecond time — see BenchmarkSurrogateQuery.
func (m *Model) Predict(ranks int, clockHz float64) (Prediction, error) {
	minR, maxR := m.Ranks()
	if ranks < minR || ranks > maxR {
		return Prediction{}, fmt.Errorf("%w: ranks=%d outside fitted hull [%d, %d]",
			campaign.ErrRefused, ranks, minR, maxR)
	}
	hz, ok := m.normClock(clockHz)
	if !ok {
		return Prediction{}, fmt.Errorf("%w: clock %g GHz not on the cluster ladder",
			campaign.ErrRefused, clockHz/1e9)
	}
	var cf *clockFit
	if hz != m.baseHz {
		if len(m.clocks) == 0 || hz < m.minHz || hz > m.maxHz {
			return Prediction{}, fmt.Errorf("%w: clock %g GHz outside fitted hull [%g, %g] GHz",
				campaign.ErrRefused, hz/1e9, m.minHz/1e9, m.maxHz/1e9)
		}
		cf = m.nearestClockFit(float64(ranks))
	}
	r := float64(ranks)
	lo := interval(m.rankX, r)
	vals := m.curves.eval(m.rankX, lo, r)
	for q := range vals {
		v := vals[q]
		if cf != nil {
			v *= cf.ratio(q, hz, &m.dv)
		}
		if v < 0 {
			v = 0
		}
		vals[q] = v
	}
	return Prediction{
		Wall:        vals[qWall],
		FlopsScalar: vals[qFlopsScalar],
		FlopsSIMD:   vals[qFlopsSIMD],
		BytesL2:     vals[qBytesL2],
		BytesL3:     vals[qBytesL3],
		BytesMem:    vals[qBytesMem],
		TimeExec:    vals[qTimeExec],
		TimeStall:   vals[qTimeStall],
		TimeMPI:     vals[qTimeMPI],
		ChipEnergy:  vals[qChipE],
		DRAMEnergy:  vals[qDRAME],
		Bound:       m.boundAt(lo, cf != nil),
	}, nil
}

// nearestClockFit returns the frequency response fitted at the rank
// count closest to r (fits are sparse — typically one ladder per swept
// rank point). Zero allocs.
func (m *Model) nearestClockFit(r float64) *clockFit {
	lo, hi := 0, len(m.clocks)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if m.clocks[mid].rank <= r {
			lo = mid
		} else {
			hi = mid
		}
	}
	if abs(m.clocks[hi].rank-r) < abs(m.clocks[lo].rank-r) {
		return &m.clocks[hi]
	}
	return &m.clocks[lo]
}

// synthesize expands a Prediction into the full RunResult shape exact
// results carry, so downstream consumers (metrics registry, service
// payloads, figures) need no surrogate-specific code path: Usage totals
// are the interpolated quantities, per-socket/domain breakdowns are
// spread uniformly over the allocated geometry, RawUsage inverts the
// family's workload extrapolation factor, and the trace carries
// per-rank zero sums (an analytic model has no event timeline).
func (m *Model) synthesize(rs spec.RunSpec, p Prediction) spec.RunResult {
	cs := rs.Cluster
	nodes := cs.NodesFor(rs.Ranks)
	sockets := nodes * cs.CPU.SocketsPerNode
	domains := nodes * cs.CPU.DomainsPerNode()
	wall := p.Wall
	if wall <= 0 {
		wall = 1e-12
	}
	u := machine.Usage{
		Cluster:     cs.Name,
		Ranks:       rs.Ranks,
		Nodes:       nodes,
		Wall:        p.Wall,
		FlopsScalar: p.FlopsScalar,
		FlopsSIMD:   p.FlopsSIMD,
		BytesL2:     p.BytesL2,
		BytesL3:     p.BytesL3,
		BytesMem:    p.BytesMem,
		TimeExec:    p.TimeExec,
		TimeStall:   p.TimeStall,
		TimeMPI:     p.TimeMPI,
		ChipEnergy:  p.ChipEnergy,
		DRAMEnergy:  p.DRAMEnergy,
	}
	u.SocketChipPower = make([]float64, sockets)
	for i := range u.SocketChipPower {
		u.SocketChipPower[i] = p.ChipEnergy / wall / float64(sockets)
	}
	u.DomainDRAMPower = make([]float64, domains)
	u.DomainBytesMem = make([]float64, domains)
	for i := 0; i < domains; i++ {
		u.DomainDRAMPower[i] = p.DRAMEnergy / wall / float64(domains)
		u.DomainBytesMem[i] = p.BytesMem / float64(domains)
	}
	if hz, ok := m.normClock(rs.ClockHz); ok && rs.ClockHz > 0 {
		rs.ClockHz = hz // report the ladder point, as spec.Run does
	}
	rep := m.report.RepFactor()
	if rep <= 0 {
		rep = 1
	}
	return spec.RunResult{
		Spec:     rs,
		Usage:    u,
		RawUsage: u.Scale(1 / rep),
		Report:   m.report,
		Trace:    trace.FromSums(make([][]float64, rs.Ranks)),
	}
}
