// Package stats implements the statistical machinery the paper's analysis
// uses: descriptive statistics, histograms, Pearson correlation with a
// two-tailed p-value (Student's t via the regularized incomplete beta
// function), and bootstrap confidence intervals.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrShort is returned when a computation needs more data points.
var ErrShort = errors.New("stats: not enough data points")

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// MinMax returns the extrema of xs; (0,0) for empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// PearsonResult carries a correlation coefficient with its significance.
type PearsonResult struct {
	R      float64 // correlation coefficient in [-1, 1]
	P      float64 // two-tailed p-value under H0: rho = 0
	N      int     // number of pairs
	TValue float64 // t statistic with N-2 degrees of freedom
}

// Pearson computes the sample Pearson correlation between paired series and
// its two-tailed p-value. The paper reports r = -0.17966, p = 0.0002 between
// daily terabyte-hours scanned and daily error counts (§III-G).
func Pearson(xs, ys []float64) (PearsonResult, error) {
	if len(xs) != len(ys) {
		return PearsonResult{}, errors.New("stats: length mismatch")
	}
	n := len(xs)
	if n < 3 {
		return PearsonResult{}, ErrShort
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return PearsonResult{R: 0, P: 1, N: n}, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp against floating point drift.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	df := float64(n - 2)
	var p, t float64
	switch {
	case math.Abs(r) >= 1:
		p = 0
		t = math.Inf(1)
	default:
		t = r * math.Sqrt(df/(1-r*r))
		p = 2 * studentTSF(math.Abs(t), df)
	}
	return PearsonResult{R: r, P: p, N: n, TValue: t}, nil
}

// studentTSF is the survival function P(T > t) for Student's t with df
// degrees of freedom, t >= 0, via the regularized incomplete beta function:
// P(T > t) = 0.5 * I_{df/(df+t^2)}(df/2, 1/2).
func studentTSF(t, df float64) float64 {
	x := df / (df + t*t)
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// lgamma returns log |Gamma(x)|.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
