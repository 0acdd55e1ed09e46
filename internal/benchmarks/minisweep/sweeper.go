package minisweep

import "math"

// sweeper holds the real (scaled-down) discrete-ordinates state of one
// rank: angular flux psi over a local block for a few angles and energy
// groups, with an isotropic source and absorption. A single sweep from
// vacuum inflow is bounded by q/sigma — the validation invariant.
type sweeper struct {
	w, h, d     int
	na, ng      int
	sigma       float64
	q           float64
	mu, eta, xi []float64 // per-angle direction cosines (positive)
	psi         []float64 // [g][a][z][y][x] flattened
	// outX, outY are reusable downwind-face scratch buffers: sweepBlock
	// overwrites them fully and the caller hands them straight to Isend,
	// which copies, so one pair per sweeper suffices.
	outX, outY []float64
	// zeros is the vacuum row upwind of the first z plane; padY holds a
	// missing or short inflow y-face row, zero-filled.
	zeros, padY []float64
}

func newSweeper(w, h, d, na, ng int) *sweeper {
	s := &sweeper{w: w, h: h, d: d, na: na, ng: ng, sigma: 1.0, q: 1.0}
	s.mu = make([]float64, na)
	s.eta = make([]float64, na)
	s.xi = make([]float64, na)
	for a := 0; a < na; a++ {
		// Deterministic positive direction cosines.
		s.mu[a] = 0.3 + 0.5*float64(a)/float64(na)
		s.eta[a] = 0.25 + 0.4*float64(a)/float64(na)
		s.xi[a] = 0.2 + 0.3*float64(a)/float64(na)
	}
	s.psi = make([]float64, ng*na*d*h*w)
	s.outX = make([]float64, s.faceXLen())
	s.outY = make([]float64, s.faceYLen())
	s.zeros, s.padY = make([]float64, w), make([]float64, w)
	return s
}

func (s *sweeper) idx(g, a, z, y, x int) int {
	return (((g*s.na+a)*s.d+z)*s.h+y)*s.w + x
}

// faceXLen and faceYLen are the real payload lengths of downwind faces.
func (s *sweeper) faceXLen() int { return s.ng * s.na * s.d * s.h }
func (s *sweeper) faceYLen() int { return s.ng * s.na * s.d * s.w }

// sweepBlock performs one upwind sweep of the whole local block in the
// direction of octant oct, using incoming x/y faces (nil = vacuum) and
// returning the outgoing downwind faces.
func (s *sweeper) sweepBlock(oct int, inX, inY []float64) (outX, outY []float64) {
	sx, sy := octantDir(oct)
	sz := 1
	if oct&4 != 0 {
		sz = -1
	}
	xs, xe := sweepRange(s.w, sx)
	ys, ye := sweepRange(s.h, sy)
	zs, ze := sweepRange(s.d, sz)

	outX, outY = s.outX, s.outY
	// Each row of the flattened [g][a][z][y][x] layout reads its upwind y
	// and z neighbors from whole rows picked once per row (the inflow face,
	// vacuum below the first plane) and carries the upwind x value, the psi
	// just written, in px. Update expression and visit order are unchanged.
	w := s.w
	zStride := s.h * w
	for g := 0; g < s.ng; g++ {
		for a := 0; a < s.na; a++ {
			mu, eta, xi := s.mu[a], s.eta[a], s.xi[a]
			denom := mu + eta + xi + s.sigma
			plane := (g*s.na + a) * s.d
			for z := zs; z != ze; z += sz {
				yUp := s.padY // inflow y-face row, zero-filled where missing or short
				if off := (plane + z) * w; off+w <= len(inY) {
					yUp = inY[off : off+w]
				} else {
					clear(yUp)
					copy(yUp, inY[min(off, len(inY)):])
				}
				for y := ys; y != ye; y += sy {
					faceX := (plane+z)*s.h + y
					row := faceX * w
					zUp := s.zeros
					if z != zs {
						zUp = s.psi[row-sz*zStride:]
					}
					var px float64
					if faceX < len(inX) {
						px = inX[faceX]
					}
					cur := s.psi[row : row+w]
					for x := xs; x != xe; x += sx {
						px = (s.q + mu*px + eta*yUp[x] + xi*zUp[x]) / denom
						cur[x] = px
					}
					yUp = cur
				}
			}
		}
	}
	// Pack downwind faces (the last computed x and y layers).
	lastX := xe - sx
	lastY := ye - sy
	for g := 0; g < s.ng; g++ {
		for a := 0; a < s.na; a++ {
			for z := 0; z < s.d; z++ {
				for y := 0; y < s.h; y++ {
					outX[((g*s.na+a)*s.d+z)*s.h+y] = s.psi[s.idx(g, a, z, y, lastX)]
				}
				for x := 0; x < s.w; x++ {
					outY[((g*s.na+a)*s.d+z)*s.w+x] = s.psi[s.idx(g, a, z, lastY, x)]
				}
			}
		}
	}
	return outX, outY
}

// sweepRange returns the start and (exclusive) end indices for a sweep of
// extent n in direction dir.
func sweepRange(n, dir int) (start, end int) {
	if dir > 0 {
		return 0, n
	}
	return n - 1, -1
}

// fluxBounds returns the minimum and maximum angular flux.
func (s *sweeper) fluxBounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range s.psi {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// sourceBound returns q/sigma, the supremum of the flux reachable from
// vacuum inflow.
func (s *sweeper) sourceBound() float64 { return s.q / s.sigma }
