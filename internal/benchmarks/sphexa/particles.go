package sphexa

import (
	"math"
	"slices"
)

// particles is the real (scaled-down) SPH state of one rank: a particle
// set in the unit box with cell-list neighbor search, cubic-spline
// kernel, isothermal pressure forces, and halo layers received from the
// z neighbors. The numerics are genuine SPH; only the particle count is
// reduced relative to the modeled workload.
//
// The passes sum over neighbor candidates in the periodic 27-cell
// stencil order (ascending particle index within a cell), then over the
// halo in received order, and accept a pair when its distance is below
// h. Distances themselves do not wrap, so most candidates are rejected,
// and three shortcuts skip that work without changing a bit of any sum:
// a stencil cell or halo block that lies farther than h is never scanned
// (at g >= 3 this drops every cell across the periodic wrap, which lies
// at least (g-2)/g > h away); a candidate whose squared distance exceeds
// h2cut is rejected before its square root; and the force pass sums over
// the pairs the density pass accepted. Both bounds are computed with the
// same rounded operations as a pair's squared distance, so by the
// monotonicity of IEEE rounding they never reject a pair the exact
// sqrt(d^2) < h test would accept (docs/PERFORMANCE.md gives the
// argument; FuzzSPHPasses checks it against a brute-force scan).
type particles struct {
	n          int
	h          float64 // smoothing length
	m          float64 // particle mass
	cs         float64 // isothermal sound speed
	sigma      float64 // kernel normalization 8/(pi h^3)
	h2cut      float64 // squared-distance rejection bound h^2 (1+1e-9)
	x, y, z    []float64
	vx, vy, vz []float64
	ax, ay, az []float64
	rho        []float64
	// halo particle coordinates (from z neighbors) and the bounding box
	// of each run of haloBlock consecutive halo particles.
	hx, hy, hz []float64
	hbox       []box
	// cell list: cell c holds cellIdx[cellStart[c]:cellStart[c+1]] in
	// ascending order.
	g         int
	cellStart []int32
	cellFill  []int32
	cellIdx   []int32
	// slab[d][k] spans coordinate d (x, y, z) of the particles in the
	// cells whose index along d is k.
	slab [3][]span
	// wrap[v+1] is cell index v wrapped into [0, g), for v in [-1, g+1].
	wrap []int
	// stencil is the scratch list of the cells one particle scans.
	stencil [27]int32
	// nbr[nbrStart[i]:nbrStart[i+1]] are the owned neighbors the density
	// pass accepted for particle i, in scan order; the force pass sums
	// over them. The list is reused across steps.
	nbr      []int32
	nbrStart []int32
}

// haloBlock is the number of consecutive halo particles that share one
// bounding box.
const haloBlock = 8

func newParticles(seed, side int) *particles {
	n := side * side * side
	p := &particles{n: n, h: 1.6 / float64(side), cs: 1.0}
	p.m = 1.0 / float64(n)
	p.sigma = 8 / (math.Pi * p.h * p.h * p.h)
	p.h2cut = p.h * p.h * (1 + 1e-9)
	alloc := func() []float64 { return make([]float64, n) }
	p.x, p.y, p.z = alloc(), alloc(), alloc()
	p.vx, p.vy, p.vz = alloc(), alloc(), alloc()
	p.ax, p.ay, p.az = alloc(), alloc(), alloc()
	p.rho = alloc()
	rng := uint64(seed)*0x9E3779B97F4A7C15 + 1
	rnd := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	i := 0
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			for c := 0; c < side; c++ {
				p.x[i] = (float64(a) + 0.5 + 0.1*(rnd()-0.5)) / float64(side)
				p.y[i] = (float64(b) + 0.5 + 0.1*(rnd()-0.5)) / float64(side)
				p.z[i] = (float64(c) + 0.5 + 0.1*(rnd()-0.5)) / float64(side)
				i++
			}
		}
	}
	p.g = int(math.Max(1, math.Floor(1/p.h)))
	nc := p.g * p.g * p.g
	p.cellStart = make([]int32, nc+1)
	p.cellFill = make([]int32, nc)
	p.cellIdx = make([]int32, n)
	// A lattice particle has 18 lattice neighbors within h = 1.6
	// spacings and fewer near the faces, where distances do not wrap, so
	// 16 per particle rarely has to grow.
	p.nbr = make([]int32, 0, 16*n)
	p.nbrStart = make([]int32, n+1)
	for d := range p.slab {
		p.slab[d] = make([]span, p.g)
	}
	p.wrap = make([]int, p.g+3)
	for v := -1; v <= p.g+1; v++ {
		p.wrap[v+1] = (v + p.g) % p.g
	}
	return p
}

// kernel is the normalized 3D cubic-spline kernel W(r, h).
func (p *particles) kernel(r float64) float64 {
	q := r / p.h
	switch {
	case q < 0.5:
		return p.sigma * (6*(q*q*q-q*q) + 1)
	case q < 1:
		d := 1 - q
		return p.sigma * 2 * d * d * d
	default:
		return 0
	}
}

// kernelGrad is dW/dr.
func (p *particles) kernelGrad(r float64) float64 {
	q := r / p.h
	switch {
	case q < 0.5:
		return p.sigma * 6 * (3*q*q - 2*q) / p.h
	case q < 1:
		d := 1 - q
		return -p.sigma * 6 * d * d / p.h
	default:
		return 0
	}
}

// haloParticles packs the positions of particles within one smoothing
// length of the top (z near 1) or bottom (z near 0) face, shifted so the
// receiving neighbor sees them adjacent to its own box.
func (p *particles) haloParticles(top bool) []float64 {
	inHalo := func(z float64) bool {
		if top {
			return z > 1-p.h
		}
		return z < p.h
	}
	k := 0
	for i := 0; i < p.n; i++ {
		if inHalo(p.z[i]) {
			k++
		}
	}
	if k == 0 {
		return nil
	}
	out := make([]float64, 0, 3*k)
	for i := 0; i < p.n; i++ {
		if !inHalo(p.z[i]) {
			continue
		}
		if top {
			out = append(out, p.x[i], p.y[i], p.z[i]-1)
		} else {
			out = append(out, p.x[i], p.y[i], p.z[i]+1)
		}
	}
	return out
}

// setHalo installs received halo particles (nil = open boundary),
// reusing the halo buffers of earlier steps.
func (p *particles) setHalo(fromDown, fromUp []float64) {
	nh := len(fromDown)/3 + len(fromUp)/3
	p.hx = slices.Grow(p.hx[:0], nh)
	p.hy = slices.Grow(p.hy[:0], nh)
	p.hz = slices.Grow(p.hz[:0], nh)
	add := func(data []float64) {
		for i := 0; i+2 < len(data); i += 3 {
			p.hx = append(p.hx, data[i])
			p.hy = append(p.hy, data[i+1])
			p.hz = append(p.hz, data[i+2])
		}
	}
	add(fromDown)
	add(fromUp)
	p.hbox = slices.Grow(p.hbox[:0], (nh+haloBlock-1)/haloBlock)
	for lo := 0; lo < len(p.hx); lo += haloBlock {
		b := box{noSpan, noSpan, noSpan}
		for k := lo; k < min(lo+haloBlock, len(p.hx)); k++ {
			b[0].add(p.hx[k])
			b[1].add(p.hy[k])
			b[2].add(p.hz[k])
		}
		p.hbox = append(p.hbox, b)
	}
}

// buildCells rebins owned particles into the cell list by a counting
// sort, which keeps each cell in ascending particle order, and records
// the coordinate span of every cell slab.
func (p *particles) buildCells() {
	clear(p.cellStart)
	for i := 0; i < p.n; i++ {
		p.cellStart[p.cellOf(p.x[i], p.y[i], p.z[i])+1]++
	}
	for c := range p.cellFill {
		p.cellStart[c+1] += p.cellStart[c]
		p.cellFill[c] = p.cellStart[c]
	}
	for d := range p.slab {
		for k := range p.slab[d] {
			p.slab[d][k] = noSpan
		}
	}
	g := p.g
	for i := 0; i < p.n; i++ {
		c := p.cellOf(p.x[i], p.y[i], p.z[i])
		p.cellIdx[p.cellFill[c]] = int32(i)
		p.cellFill[c]++
		p.slab[0][c%g].add(p.x[i])
		p.slab[1][c/g%g].add(p.y[i])
		p.slab[2][c/(g*g)].add(p.z[i])
	}
}

func (p *particles) cellOf(x, y, z float64) int {
	c := func(v float64) int {
		i := int(v * float64(p.g))
		if i < 0 {
			i = 0
		}
		if i >= p.g {
			i = p.g - 1
		}
		return i
	}
	return (c(z)*p.g+c(y))*p.g + c(x)
}

// cellsNear lists, in 27-cell stencil order with periodic wrap in all
// dimensions, the cells around (x,y,z) that can hold a pair inside the
// rejection bound. A cell is ruled out when the squared gaps from the
// point to the coordinate spans of its x, y and z slabs, combined in
// sqDist's order, already exceed the bound; whole z and y slabs go
// first on their gap alone. At grids of fewer than three cells a cell
// recurs in the stencil and is listed at each occurrence. The list
// reuses the stencil scratch.
func (p *particles) cellsNear(x, y, z float64) []int32 {
	s := p.stencil[:0]
	g := p.g
	cx := int(x * float64(g))
	cy := int(y * float64(g))
	cz := int(z * float64(g))
	for dz := -1; dz <= 1; dz++ {
		iz := p.wrap[cz+dz+1]
		gz := p.slab[2][iz].gap(z)
		if gz*gz > p.h2cut {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			iy := p.wrap[cy+dy+1]
			gy := p.slab[1][iy].gap(y)
			if gy*gy > p.h2cut {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				ix := p.wrap[cx+dx+1]
				gx := p.slab[0][ix].gap(x)
				if gx*gx+gy*gy+gz*gz <= p.h2cut {
					s = append(s, int32((iz*g+iy)*g+ix))
				}
			}
		}
	}
	return s
}

// densityPass computes SPH densities over owned + halo particles and
// records each particle's accepted owned neighbors.
func (p *particles) densityPass() {
	p.buildCells()
	p.nbr = p.nbr[:0]
	self := p.m * p.kernel(0)
	for i := 0; i < p.n; i++ {
		p.nbrStart[i] = int32(len(p.nbr))
		rho := self
		xi, yi, zi := p.x[i], p.y[i], p.z[i]
		for _, c := range p.cellsNear(xi, yi, zi) {
			for _, j := range p.cellIdx[p.cellStart[c]:p.cellStart[c+1]] {
				if int(j) == i {
					continue
				}
				d2 := sqDist(xi, yi, zi, p.x[j], p.y[j], p.z[j])
				if d2 > p.h2cut {
					continue
				}
				if r := math.Sqrt(d2); r < p.h {
					rho += p.m * p.kernel(r)
					p.nbr = append(p.nbr, j)
				}
			}
		}
		// Halo contributions, in received order.
		for b := range p.hbox {
			hb := &p.hbox[b]
			gz := hb[2].gap(zi)
			if gz*gz > p.h2cut {
				continue
			}
			if gx, gy := hb[0].gap(xi), hb[1].gap(yi); gx*gx+gy*gy+gz*gz > p.h2cut {
				continue
			}
			for k := b * haloBlock; k < min((b+1)*haloBlock, len(p.hx)); k++ {
				d2 := sqDist(xi, yi, zi, p.hx[k], p.hy[k], p.hz[k])
				if d2 > p.h2cut {
					continue
				}
				if r := math.Sqrt(d2); r < p.h {
					rho += p.m * p.kernel(r)
				}
			}
		}
		p.rho[i] = rho
	}
	p.nbrStart[p.n] = int32(len(p.nbr))
}

// forcePass computes isothermal pressure accelerations
// (P = cs^2 rho, symmetric SPH form) over the neighbors the density
// pass accepted; positions do not move between the two passes, so each
// pair's distance is recomputed to the same bits and stays below h.
func (p *particles) forcePass() {
	for i := 0; i < p.n; i++ {
		var ax, ay, az float64
		xi, yi, zi := p.x[i], p.y[i], p.z[i]
		pi := p.cs * p.cs / p.rho[i] // P_i / rho_i^2 with P = cs^2 rho
		for _, j := range p.nbr[p.nbrStart[i]:p.nbrStart[i+1]] {
			r := math.Sqrt(sqDist(xi, yi, zi, p.x[j], p.y[j], p.z[j]))
			if r <= 1e-12 {
				continue
			}
			pj := p.cs * p.cs / p.rho[j]
			f := -p.m * (pi + pj) * p.kernelGrad(r) / r
			ax += f * (xi - p.x[j])
			ay += f * (yi - p.y[j])
			az += f * (zi - p.z[j])
		}
		p.ax[i], p.ay[i], p.az[i] = ax, ay, az
	}
}

// cflLimit returns the local CFL timestep bound.
func (p *particles) cflLimit() float64 {
	vmax := p.maxSpeed()
	return 0.25 * p.h / (p.cs + vmax)
}

// integrate advances positions and velocities (periodic unit box).
func (p *particles) integrate(dt float64) {
	for i := 0; i < p.n; i++ {
		p.vx[i] += dt * p.ax[i]
		p.vy[i] += dt * p.ay[i]
		p.vz[i] += dt * p.az[i]
		p.x[i] = wrap01(p.x[i] + dt*p.vx[i])
		p.y[i] = wrap01(p.y[i] + dt*p.vy[i])
		p.z[i] = wrap01(p.z[i] + dt*p.vz[i])
	}
}

// minDensity returns the smallest computed density.
func (p *particles) minDensity() float64 {
	lo := math.Inf(1)
	for _, v := range p.rho {
		if v < lo {
			lo = v
		}
	}
	return lo
}

// maxSpeed returns the largest particle speed.
func (p *particles) maxSpeed() float64 {
	hi := 0.0
	for i := 0; i < p.n; i++ {
		s := math.Sqrt(p.vx[i]*p.vx[i] + p.vy[i]*p.vy[i] + p.vz[i]*p.vz[i])
		if s > hi {
			hi = s
		}
	}
	return hi
}

// totalMomentum returns the signed sum of momentum components.
func (p *particles) totalMomentum() float64 {
	var sum float64
	for i := 0; i < p.n; i++ {
		sum += p.m * (p.vx[i] + p.vy[i] + p.vz[i])
	}
	return sum
}

// sqDist is the squared distance whose square root the passes compare
// with h.
func sqDist(ax, ay, az, bx, by, bz float64) float64 {
	dx, dy, dz := ax-bx, ay-by, az-bz
	return dx*dx + dy*dy + dz*dz
}

// span is the interval [lo, hi] of one coordinate of a particle set.
type span struct{ lo, hi float64 }

// noSpan is the span of no value.
var noSpan = span{math.Inf(1), math.Inf(-1)}

func (s *span) add(v float64) { s.lo, s.hi = min(s.lo, v), max(s.hi, v) }

// gap is v minus the point of s nearest to v: zero inside s, and
// infinite for an empty span. For every u in s, |v-u| >= |gap|, and
// rounding the difference keeps that order.
func (s *span) gap(v float64) float64 {
	switch {
	case v <= s.lo:
		return v - s.lo
	case v >= s.hi:
		return v - s.hi
	}
	return 0
}

// box is the axis-aligned bounding box of a particle set: the span of
// its x, y and z coordinates.
type box [3]span

func wrap01(v float64) float64 {
	v = math.Mod(v, 1)
	if v < 0 {
		v++
	}
	return v
}
