package dist

// Numeric quadrature used to integrate densities (Eq. 4 and Eq. 9 of the
// paper before discretization, KDE normalization checks, and truncated
// moments).

// Trapezoid integrates f over [a, b] with n uniform panels using the
// composite trapezoid rule. n must be >= 1.
func Trapezoid(f func(float64) float64, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	h := (b - a) / float64(n)
	sum := (f(a) + f(b)) / 2
	for i := 1; i < n; i++ {
		sum += f(a + float64(i)*h)
	}
	return sum * h
}

// Simpson integrates f over [a, b] with n uniform panels (n rounded up to
// even) using the composite Simpson rule.
func Simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// Bisect finds a root of g in [a, b] assuming g(a) and g(b) bracket zero,
// to the given x tolerance. Used to invert CDFs. If the interval does not
// bracket a root, the endpoint with the smaller |g| is returned.
func Bisect(g func(float64) float64, a, b, tol float64) float64 {
	ga, gb := g(a), g(b)
	if ga == 0 {
		return a
	}
	if gb == 0 {
		return b
	}
	if ga*gb > 0 {
		if abs(ga) < abs(gb) {
			return a
		}
		return b
	}
	for b-a > tol {
		m := (a + b) / 2
		gm := g(m)
		if gm == 0 {
			return m
		}
		if ga*gm < 0 {
			b, gb = m, gm
		} else {
			a, ga = m, gm
		}
	}
	_ = gb
	return (a + b) / 2
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// QuantileOf inverts a Distribution's CDF by bisection over its support.
func QuantileOf(d Distribution, q float64) float64 {
	lo, hi := d.Support()
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	return Bisect(func(x float64) float64 { return d.CDF(x) - q }, lo, hi, 1e-10*(hi-lo)+1e-15)
}
