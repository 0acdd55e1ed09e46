package surrogate

// pchip is a fitted shape-preserving piecewise-cubic Hermite interpolant
// (Fritsch–Carlson PCHIP): it passes through every knot, never
// overshoots between knots, and preserves local monotonicity — exactly
// the behaviour wanted for scaling curves, where a classic cubic spline
// would ring around the saturation knee. Evaluation is allocation-free.
type pchip struct {
	x []float64 // strictly increasing knots
	y []float64 // values at the knots
	d []float64 // Fritsch–Carlson derivatives at the knots
}

// fitPCHIP builds the interpolant over strictly increasing xs. It
// panics on mismatched lengths; callers guarantee len >= 2.
func fitPCHIP(xs, ys []float64) pchip {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("surrogate: pchip needs >= 2 matched points")
	}
	n := len(xs)
	h := make([]float64, n-1)     // interval widths
	delta := make([]float64, n-1) // secant slopes
	for i := 0; i < n-1; i++ {
		h[i] = xs[i+1] - xs[i]
		delta[i] = (ys[i+1] - ys[i]) / h[i]
	}
	d := make([]float64, n)
	// Interior derivatives: zero at local extrema (sign change or flat
	// secant), else the weighted harmonic mean of the two secants — the
	// Fritsch–Carlson choice that guarantees monotonicity per interval.
	for i := 1; i < n-1; i++ {
		if delta[i-1]*delta[i] <= 0 {
			d[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		d[i] = (w1 + w2) / (w1/delta[i-1] + w2/delta[i])
	}
	d[0] = endSlope(h[0], delta[0], hAt(h, 1), deltaAt(delta, 1))
	d[n-1] = endSlope(h[n-2], delta[n-2], hAt(h, n-3), deltaAt(delta, n-3))
	return pchip{x: xs, y: ys, d: d}
}

func hAt(h []float64, i int) float64 {
	if i < 0 || i >= len(h) {
		return 0
	}
	return h[i]
}

func deltaAt(delta []float64, i int) float64 {
	if i < 0 || i >= len(delta) {
		return 0
	}
	return delta[i]
}

// endSlope is the standard shape-preserving three-point endpoint
// formula, clamped so the boundary interval cannot overshoot. h0/delta0
// belong to the boundary interval, h1/delta1 to its neighbour (zero
// when only one interval exists, degrading to the secant slope).
func endSlope(h0, delta0, h1, delta1 float64) float64 {
	if h1 == 0 {
		return delta0
	}
	d := ((2*h0+h1)*delta0 - h0*delta1) / (h0 + h1)
	if d*delta0 <= 0 {
		return 0
	}
	if delta0*delta1 < 0 && abs(d) > 3*abs(delta0) {
		return 3 * delta0
	}
	return d
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// eval interpolates at q, clamping outside the knot range (the model
// layer refuses out-of-hull queries before eval is reached; the clamp
// only defends LOO probes landing exactly on a boundary). Zero allocs.
func (p pchip) eval(q float64) float64 {
	n := len(p.x)
	if q <= p.x[0] {
		return p.y[0]
	}
	if q >= p.x[n-1] {
		return p.y[n-1]
	}
	lo := interval(p.x, q)
	return hermiteAt(p.x, lo, q).blend(p.y[lo], p.d[lo], p.y[lo+1], p.d[lo+1])
}

// interval binary-searches strictly increasing knots xs for the
// interval [lo, lo+1] with xs[lo] <= q < xs[lo+1], clamped to the first
// and last interval for q outside the knots.
func interval(xs []float64, q float64) int {
	lo, hi := 0, len(xs)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// hermite is the cubic Hermite basis of one query point inside a knot
// interval of width h: every curve over the same knots interpolates
// there with the same weights.
type hermite struct{ h, h00, h10, h01, h11 float64 }

func hermiteAt(xs []float64, lo int, q float64) hermite {
	h := xs[lo+1] - xs[lo]
	t := (q - xs[lo]) / h
	t2 := t * t
	t3 := t2 * t
	return hermite{
		h:   h,
		h00: 2*t3 - 3*t2 + 1,
		h10: t3 - 2*t2 + t,
		h01: -2*t3 + 3*t2,
		h11: t3 - t2,
	}
}

// blend interpolates a curve with values y0, y1 and derivatives d0, d1
// at the interval ends.
func (w hermite) blend(y0, d0, y1, d1 float64) float64 {
	return y0*w.h00 + w.h*d0*w.h10 + y1*w.h01 + w.h*d1*w.h11
}

// curveSet is nQuant PCHIP curves over one shared knot vector, stored
// as one struct of arrays: the values and derivatives of every
// quantity at knot i are y[i] and d[i]. One interval search and one
// Hermite basis serve all of them.
type curveSet struct {
	y, d [][nQuant]float64
}

func newCurveSet(curves *[nQuant]pchip) curveSet {
	n := len(curves[0].x)
	cs := curveSet{y: make([][nQuant]float64, n), d: make([][nQuant]float64, n)}
	for q := range curves {
		for i := 0; i < n; i++ {
			cs.y[i][q], cs.d[i][q] = curves[q].y[i], curves[q].d[i]
		}
	}
	return cs
}

// eval interpolates every quantity at q over knots xs, whose interval
// lo = interval(xs, q) the caller has found, clamping outside the knots
// exactly as pchip.eval does. Zero allocs.
func (c *curveSet) eval(xs []float64, lo int, q float64) [nQuant]float64 {
	n := len(xs)
	if q <= xs[0] {
		return c.y[0]
	}
	if q >= xs[n-1] {
		return c.y[n-1]
	}
	w := hermiteAt(xs, lo, q)
	// Copy the four knot rows whole: one block read each instead of one
	// read per quantity, and the race detector instruments every read.
	y0, d0, y1, d1 := c.y[lo], c.d[lo], c.y[lo+1], c.d[lo+1]
	var out [nQuant]float64
	for k := range out {
		out[k] = w.blend(y0[k], d0[k], y1[k], d1[k])
	}
	return out
}
