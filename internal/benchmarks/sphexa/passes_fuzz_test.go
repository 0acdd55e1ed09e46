package sphexa

import (
	"fmt"
	"math"
	"testing"
)

// refPasses is the brute-force reference for densityPass and forcePass:
// every candidate of the periodic 27-cell stencil (a cell recurring in
// the stencil contributes at each occurrence) in stencil order, then
// every halo particle in received order, each with its own square root.
func refPasses(p *particles) (rho, ax, ay, az []float64) {
	g := p.g
	cells := make([][]int, g*g*g)
	for i := 0; i < p.n; i++ {
		c := p.cellOf(p.x[i], p.y[i], p.z[i])
		cells[c] = append(cells[c], i)
	}
	candidates := func(x, y, z float64) []int {
		var out []int
		cx, cy, cz := int(x*float64(g)), int(y*float64(g)), int(z*float64(g))
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					ix, iy, iz := (cx+dx+g)%g, (cy+dy+g)%g, (cz+dz+g)%g
					out = append(out, cells[(iz*g+iy)*g+ix]...)
				}
			}
		}
		return out
	}
	dist := func(ax, ay, az, bx, by, bz float64) float64 {
		dx, dy, dz := ax-bx, ay-by, az-bz
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	sigma := 8 / (math.Pi * p.h * p.h * p.h)
	kernel := func(r float64) float64 {
		q := r / p.h
		switch {
		case q < 0.5:
			return sigma * (6*(q*q*q-q*q) + 1)
		case q < 1:
			d := 1 - q
			return sigma * 2 * d * d * d
		}
		return 0
	}
	kernelGrad := func(r float64) float64 {
		q := r / p.h
		switch {
		case q < 0.5:
			return sigma * 6 * (3*q*q - 2*q) / p.h
		case q < 1:
			d := 1 - q
			return -sigma * 6 * d * d / p.h
		}
		return 0
	}
	rho = make([]float64, p.n)
	for i := 0; i < p.n; i++ {
		xi, yi, zi := p.x[i], p.y[i], p.z[i]
		rho[i] = p.m * kernel(0)
		for _, j := range candidates(xi, yi, zi) {
			if r := dist(xi, yi, zi, p.x[j], p.y[j], p.z[j]); j != i && r < p.h {
				rho[i] += p.m * kernel(r)
			}
		}
		for k := range p.hx {
			if r := dist(xi, yi, zi, p.hx[k], p.hy[k], p.hz[k]); r < p.h {
				rho[i] += p.m * kernel(r)
			}
		}
	}
	ax, ay, az = make([]float64, p.n), make([]float64, p.n), make([]float64, p.n)
	for i := 0; i < p.n; i++ {
		xi, yi, zi := p.x[i], p.y[i], p.z[i]
		pi := p.cs * p.cs / rho[i]
		for _, j := range candidates(xi, yi, zi) {
			r := dist(xi, yi, zi, p.x[j], p.y[j], p.z[j])
			if j == i || r <= 1e-12 || r >= p.h {
				continue
			}
			f := -p.m * (pi + p.cs*p.cs/rho[j]) * kernelGrad(r) / r
			ax[i] += f * (xi - p.x[j])
			ay[i] += f * (yi - p.y[j])
			az[i] += f * (zi - p.z[j])
		}
	}
	return rho, ax, ay, az
}

// refHalo is the reference halo packing: particles within h of the top
// or bottom face, shifted by one box.
func refHalo(p *particles, top bool) []float64 {
	var out []float64
	for i := 0; i < p.n; i++ {
		if top && p.z[i] > 1-p.h {
			out = append(out, p.x[i], p.y[i], p.z[i]-1)
		} else if !top && p.z[i] < p.h {
			out = append(out, p.x[i], p.y[i], p.z[i]+1)
		}
	}
	return out
}

// diffBits describes the first difference between a and b in length or
// in any bit of an element, or returns "" when they are identical.
func diffBits(a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("length %d, reference %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("[%d] = %v, reference %v", i, a[i], b[i])
		}
	}
	return ""
}

// FuzzSPHPasses checks the pruned density and force passes against the
// brute-force reference bit for bit. side 3..10 spans the grids where
// the stencil revisits cells (g = 1, 2) and the ones where it does not;
// halo selects no halo, one face or both; nudge moves that many particle
// coordinates onto cell boundaries, one ulp either side of them, or to
// exactly 1.0, which wrap01 can return.
func FuzzSPHPasses(f *testing.F) {
	for side := uint8(3); side <= 10; side++ {
		f.Add(uint64(side), side, uint8(3), uint8(3), uint8(side))
	}
	f.Add(uint64(7), uint8(6), uint8(0), uint8(1), uint8(0))
	f.Add(uint64(11), uint8(5), uint8(1), uint8(2), uint8(40))
	f.Add(uint64(13), uint8(4), uint8(2), uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, side, halo, steps, nudge uint8) {
		s := 3 + int(side%8)
		p := newParticles(int(seed%1e6), s)
		rng := seed*0x9E3779B97F4A7C15 + 1
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		coords := [][]float64{p.x, p.y, p.z}
		for range int(nudge) {
			c := coords[next(3)]
			i := next(p.n)
			v := float64(next(p.g+1)) / float64(p.g)
			switch next(4) {
			case 0:
				v = math.Nextafter(v, 0)
			case 1:
				v = math.Nextafter(v, 2)
			case 2:
				v = 1
			}
			c[i] = min(max(v, 0), 1)
		}
		for step := range 1 + int(steps%3) {
			up, down := p.haloParticles(true), p.haloParticles(false)
			for _, h := range []struct {
				got []float64
				top bool
			}{{up, true}, {down, false}} {
				if d := diffBits(h.got, refHalo(p, h.top)); d != "" {
					t.Fatalf("side %d step %d: halo (top=%v) %s", s, step, h.top, d)
				}
			}
			var fromDown, fromUp []float64
			if halo&1 != 0 {
				fromDown = up
			}
			if halo&2 != 0 {
				fromUp = down
			}
			p.setHalo(fromDown, fromUp)
			p.densityPass()
			p.forcePass()
			rho, ax, ay, az := refPasses(p)
			for _, q := range []struct {
				name      string
				got, want []float64
			}{{"rho", p.rho, rho}, {"ax", p.ax, ax}, {"ay", p.ay, ay}, {"az", p.az, az}} {
				if d := diffBits(q.got, q.want); d != "" {
					t.Fatalf("side %d step %d: %s%s", s, step, q.name, d)
				}
			}
			p.integrate(p.cflLimit())
		}
	})
}
