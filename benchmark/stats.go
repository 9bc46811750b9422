package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first, second and third quartile of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (method "exclusive"), so a
// spread computed here matches one computed from the JSON lines in Python.
// One sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle sample of xs (the mean of the two middle samples
// for an even count).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise measure the bounds in BENCHMARK.json are checked against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder holds the percentiles tail picks from, in tenths of a percent,
// highest first.
var tailLadder = []int{999, 990, 950, 900}

// tail reports the highest percentile of the ladder with at least ten
// samples beyond it, and the sample at that rank (nearest-rank rule). ok is
// false when xs is too small for any of them, so a tail is never read off
// a handful of samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	for _, pm := range tailLadder {
		if n*(1000-pm) < 10*1000 {
			continue
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		rank := (pm*n + 999) / 1000 // ceil(pm/1000 * n)
		return float64(pm) / 10, s[rank-1], true
	}
	return 0, 0, false
}

// verdict compares a metric's samples from two sets of runs, a (the
// reference) and b, against its regression bound (a share of a's median).
//
//   - unresolved: either set spreads wider than the bound and b's samples
//     do not all lie on one side of a's;
//   - worse / better: b's median moved past the bound in that direction (or,
//     with wide spreads, every sample of b lies beyond every sample of a);
//   - unchanged: otherwise.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	ma, mb := median(a), median(b)
	// worsening is positive when b is worse than a, as a share of a.
	worsening := func(x float64) float64 {
		if ma == 0 {
			return 0
		}
		d := (x - ma) / math.Abs(ma)
		if higherBetter {
			d = -d
		}
		return d
	}
	if max(spread(a), spread(b)) > bound {
		switch {
		case allBeyond(a, b, higherBetter):
			return "better"
		case allBeyond(b, a, higherBetter):
			return "worse"
		}
		return "unresolved"
	}
	switch d := worsening(mb); {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "unchanged"
}

// allBeyond reports whether every sample of hi reads better than every
// sample of lo.
func allBeyond(lo, hi []float64, higherBetter bool) bool {
	if len(lo) == 0 || len(hi) == 0 {
		return false
	}
	for _, x := range lo {
		for _, y := range hi {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				return false
			}
		}
	}
	return true
}

// interval is a half-open stretch of wall time.
type interval struct{ start, end time.Time }

// covered is the total length of the union of ivs: time during which at
// least one of them was open, counting overlaps once.
func covered(ivs []interval) time.Duration {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range s {
		if i == 0 || iv.start.After(cur.end) {
			if i > 0 {
				total += cur.end.Sub(cur.start)
			}
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	if len(s) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}
