package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even
// lengths) without reordering the caller's slice; NaN for no samples.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile is the linearly interpolated p-th percentile (p in
// [0, 100]) of xs, the same "inclusive" rule numpy's default uses.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	switch len(s) {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) ("exclusive" method) computes them —
// the rule the benchmark contract's spread check uses. Fewer than two
// samples have no quartiles: both results are the lone sample (or NaN).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// statistics.quantiles: j = i*(n+1)/4 clamped to [1, n-1], the
		// interpolation weight taken after the clamp.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 || math.IsNaN(m) {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// medianOf is the median of f over the rounds of a run.
func medianOf[T any](rs []T, f func(T) float64) float64 {
	return median(mapOf(rs, f))
}

func mapOf[T any](rs []T, f func(T) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// quietLow and quietHigh are the quiet decile of a host-time metric's
// samples (one per slice, round or call of a run): the 10th percentile
// of a metric that is better lower, the 90th of one that is better
// higher. On a shared host a neighbour only ever takes time away, in
// episodes that last from a fraction of a second to minutes, so the
// median of a run's samples follows the neighbour. The decile on the
// undisturbed side follows the program as long as a tenth of the
// samples ran in peace, and a change to the program moves every sample,
// this decile included. It is not the extreme: one lucky sample does not
// set it, and the number of samples a run takes hardly moves it.
func quietLow(xs []float64) float64  { return percentile(xs, 10) }
func quietHigh(xs []float64) float64 { return percentile(xs, 90) }

// selfTimes turns inclusive per-level costs (outermost first, each
// level's span containing the next) into exclusive self times: level i
// minus level i+1, the innermost kept whole. Replay noise can make an
// inner level read slower than its parent; such a self time clamps to
// zero and the clamped amount is returned so callers can report it.
func selfTimes(inclusive []float64) (self []float64, clamped float64) {
	self = make([]float64, len(inclusive))
	for i, v := range inclusive {
		s := v
		if i+1 < len(inclusive) {
			s = v - inclusive[i+1]
		}
		if s < 0 {
			clamped += -s
			s = 0
		}
		self[i] = s
	}
	return self, clamped
}
