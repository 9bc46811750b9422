package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// want is statistics.quantiles(xs, n=4) from Python 3 (one sample is
	// its own quartiles here; Python refuses it).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		if m := median(tc.xs); m != tc.want[1] {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.want[1])
		}
	}
	if s := spread([]float64{1, 2, 3, 4}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 ((3.75-1.25)/2.5)", s)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{5, false, 0, 0},
		{99, false, 0, 0},
		{100, true, 90, 90},
		{199, true, 90, 180},
		{200, true, 95, 190},
		{999, true, 95, 950},
		{1000, true, 99, 990},
		{9999, true, 99, 9900},
		{10000, true, 99.9, 9990},
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.at {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", tc.n, pct, v, ok, tc.pct, tc.at, tc.ok)
		}
	}
}

func TestVerdictAgainstBound(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		bound        float64
		higherBetter bool
		want         string
	}{
		{"same samples", steady, steady, 0.1, false, "unchanged"},
		{"within bound", steady, scaled(1.05), 0.1, false, "unchanged"},
		{"slower time", steady, scaled(1.2), 0.1, false, "worse"},
		{"faster time", steady, scaled(0.8), 0.1, false, "better"},
		{"higher rate", steady, scaled(1.2), 0.1, true, "better"},
		{"lower rate", steady, scaled(0.8), 0.1, true, "worse"},
		{"noisy, overlapping", []float64{1, 2, 3, 4}, []float64{1.5, 2.5, 3.5, 4.5}, 0.1, false, "unresolved"},
		{"noisy, all beyond", []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 0.1, false, "worse"},
		{"noisy, all better", []float64{5, 6, 7, 8}, []float64{1, 2, 3, 4}, 0.1, false, "better"},
	} {
		if got := verdict(tc.a, tc.b, tc.bound, tc.higherBetter); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCoveredCountsOverlapsOnce(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	ivs := []interval{
		{at(50), at(60)},
		{at(0), at(10)},
		{at(5), at(20)},  // overlaps the first
		{at(12), at(15)}, // nested
	}
	if got := covered(ivs); got != 30*time.Millisecond {
		t.Fatalf("covered = %v, want 30ms", got)
	}
	if got := covered(nil); got != 0 {
		t.Fatalf("covered(nil) = %v", got)
	}
}
