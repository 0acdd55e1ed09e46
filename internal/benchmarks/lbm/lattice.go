package lbm

import (
	"math"

	"github.com/spechpc/spechpc-sim/internal/benchmarks/bench"
)

// lattice is the executable D2Q9 BGK lattice: real populations with a
// one-cell ghost ring, pull-scheme streaming, and halfway bounce-back at
// physical (non-neighbor) boundaries. It provides the verifiable physics
// (global mass conservation, positivity) under the D2Q37 cost model.
type lattice struct {
	w, h int
	f    [9][]float64 // populations, ghost ring included
	fnew [9][]float64
	tau  float64
	// wall flags: true where there is no neighbor rank. Streaming applies
	// on-site halfway bounce-back across these sides instead of reading
	// ghost cells.
	wallW, wallE, wallS, wallN bool
	// edges are the two reusable send buffers of a halo exchange: the
	// west and east edges of ExchangeX, then the south and north edges
	// of ExchangeY. Sends copy their payload, so an exchange may refill
	// a buffer the previous one sent.
	edges [2][]float64
}

// D2Q9 velocity set and weights.
var (
	cx = [9]int{0, 1, -1, 0, 0, 1, -1, 1, -1}
	cy = [9]int{0, 0, 0, 1, -1, 1, -1, -1, 1}
	wt = [9]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
	// opposite[i] is the direction of -c_i, used by bounce-back.
	opposite = [9]int{0, 2, 1, 4, 3, 6, 5, 8, 7}
)

func newLattice(w, h int) lattice {
	l := lattice{w: w, h: h, tau: 0.8}
	n := (w + 2) * (h + 2)
	for i := 0; i < 9; i++ {
		l.f[i] = make([]float64, n)
		l.fnew[i] = make([]float64, n)
	}
	// An edge is at most w+2 cells (Y, ghost corners included) or h
	// cells (X) of 9 populations.
	e := 9 * max(w+2, h)
	edges := make([]float64, 2*e)
	l.edges = [2][]float64{edges[:0:e], edges[e : e : 2*e]}
	// Smooth density perturbation at rest: equilibrium populations.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			rho := 1.0 + 0.05*math.Sin(2*math.Pi*float64(x)/float64(w))*
				math.Cos(2*math.Pi*float64(y)/float64(h))
			for i := 0; i < 9; i++ {
				l.f[i][l.idx(x, y)] = wt[i] * rho
			}
		}
	}
	return l
}

// idx maps interior coordinates (x in [-1,w], y in [-1,h]) to the flat
// ghost-ring layout.
func (l *lattice) idx(x, y int) int { return (y+1)*(l.w+2) + (x + 1) }

// mass returns the total interior density.
func (l *lattice) mass() float64 {
	var m float64
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			id := l.idx(x, y)
			for i := 0; i < 9; i++ {
				m += l.f[i][id]
			}
		}
	}
	return m
}

// minDensity returns the smallest interior density, for positivity checks.
func (l *lattice) minDensity() float64 {
	minRho := math.Inf(1)
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			id := l.idx(x, y)
			rho := 0.0
			for i := 0; i < 9; i++ {
				rho += l.f[i][id]
			}
			if rho < minRho {
				minRho = rho
			}
		}
	}
	return minRho
}

// pack serializes the 9 populations of a run of cells into send buffer
// edges[buf].
func (l *lattice) pack(buf, xs, ys, count, dx, dy int) []float64 {
	out := l.edges[buf][:0]
	for k := 0; k < count; k++ {
		id := l.idx(xs+k*dx, ys+k*dy)
		for i := 0; i < 9; i++ {
			out = append(out, l.f[i][id])
		}
	}
	l.edges[buf] = out
	return out
}

// unpack writes serialized populations into a run of (ghost) cells.
func (l *lattice) unpack(data []float64, xs, ys, dx, dy int) {
	for k := 0; k*9+8 < len(data); k++ {
		id := l.idx(xs+k*dx, ys+k*dy)
		for i := 0; i < 9; i++ {
			l.f[i][id] = data[k*9+i]
		}
	}
}

// Edge payloads: full population sets of the boundary layer. The X
// exchange sends interior columns; the Y exchange sends full rows
// including the just-filled ghost corners, so diagonal streams cross rank
// corners correctly.
func (l *lattice) edgeW() []float64 { return l.pack(0, 0, 0, l.h, 0, 1) }
func (l *lattice) edgeE() []float64 { return l.pack(1, l.w-1, 0, l.h, 0, 1) }
func (l *lattice) edgeS() []float64 { return l.pack(0, -1, 0, l.w+2, 1, 0) }
func (l *lattice) edgeN() []float64 { return l.pack(1, -1, l.h-1, l.w+2, 1, 0) }

// applyHaloX fills the ghost columns from neighbor payloads; missing
// neighbors get halfway bounce-back ghosts (reflected edge populations).
// applyHaloX fills the ghost columns from neighbor payloads and records
// wall sides (no neighbor): streaming bounces back across walls on-site.
func (l *lattice) applyHaloX(h bench.Halo) {
	l.wallW = h.FromWest == nil
	l.wallE = h.FromEast == nil
	if !l.wallW {
		l.unpack(h.FromWest, -1, 0, 0, 1)
	}
	if !l.wallE {
		l.unpack(h.FromEast, l.w, 0, 0, 1)
	}
}

// applyHaloY fills the ghost rows (including corners, since Y payloads
// span the ghost columns filled by the preceding X exchange).
func (l *lattice) applyHaloY(h bench.Halo) {
	l.wallS = h.FromSouth == nil
	l.wallN = h.FromNorth == nil
	if !l.wallS {
		l.unpack(h.FromSouth, -1, -1, 1, 0)
	}
	if !l.wallN {
		l.unpack(h.FromNorth, -1, l.h, 1, 0)
	}
}

// wallCrossed reports whether a pull from source (sx, sy) crosses a wall
// side of the tile.
func (l *lattice) wallCrossed(sx, sy int) bool {
	return (sx < 0 && l.wallW) || (sx >= l.w && l.wallE) ||
		(sy < 0 && l.wallS) || (sy >= l.h && l.wallN)
}

// step performs one pull-stream + BGK collision over the interior. Pulls
// whose source lies across a wall use on-site halfway bounce-back
// (f_i(x,t+1) = f_opp(i)(x,t)), which conserves mass exactly; pulls from
// neighbor ranks read the ghost ring filled by the halo exchange.
func (l *lattice) step() {
	for y := 0; y < l.h; y++ {
		for x := 0; x < l.w; x++ {
			id := l.idx(x, y)
			var rho, ux, uy float64
			var fin [9]float64
			for i := 0; i < 9; i++ {
				sx, sy := x-cx[i], y-cy[i]
				var v float64
				if l.wallCrossed(sx, sy) {
					v = l.f[opposite[i]][id]
				} else {
					v = l.f[i][l.idx(sx, sy)]
				}
				fin[i] = v
				rho += v
				ux += v * float64(cx[i])
				uy += v * float64(cy[i])
			}
			ux /= rho
			uy /= rho
			usq := ux*ux + uy*uy
			for i := 0; i < 9; i++ {
				cu := float64(cx[i])*ux + float64(cy[i])*uy
				feq := wt[i] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*usq)
				l.fnew[i][id] = fin[i] - (fin[i]-feq)/l.tau
			}
		}
	}
	l.f, l.fnew = l.fnew, l.f
}
