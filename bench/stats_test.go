package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 50}, {99, 50}, {100, 90}, {150, 90}, {999, 90}, {1000, 99}, {5_000_000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p != 50 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileIsNearestRankAcrossBothStores(t *testing.T) {
	l := new(latencies)
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Microsecond
		if i > 90 {
			d = time.Duration(i) * time.Millisecond // beyond the fine buckets
		}
		l.add(d)
	}
	for _, c := range []struct {
		p    int
		want time.Duration
	}{{50, 50 * time.Microsecond}, {90, 90 * time.Microsecond}, {99, 99 * time.Millisecond}, {100, 100 * time.Millisecond}} {
		if got := time.Duration(l.percentile(c.p)); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartiles to what Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lat := metric{"latency_p50_us", "us", "lower", 0.10}
	tput := metric{"throughput_ops_s", "1/s", "higher", 0.10}
	around := func(center float64, jitter ...float64) []float64 {
		var xs []float64
		for _, j := range jitter {
			xs = append(xs, center+j)
		}
		return xs
	}
	tight := []float64{-0.5, 0.3, -0.2, 0.4, 0.1, -0.3, 0.2, -0.1, 0.5, 0}
	wide := []float64{-30, 25, -20, 30, 10, -25, 20, -10, 15, 0}
	for _, c := range []struct {
		name           string
		m              metric
		parent, change []float64
		want           string
	}{
		{"faster latency", lat, around(100, tight...), around(90, tight...), improved},
		{"same latency", lat, around(100, tight...), around(100.2, tight...), unchanged},
		{"slower within bound", lat, around(100, tight...), around(105, tight...), unchanged},
		{"slower beyond bound", lat, around(100, tight...), around(115, tight...), regressed},
		{"noisy parent", lat, around(100, wide...), around(100, tight...), unresolved},
		{"noisy but every change run better", lat, around(200, wide...), around(100, tight...), improved},
		{"higher throughput", tput, around(100, tight...), around(110, tight...), improved},
		{"lower throughput", tput, around(100, tight...), around(85, tight...), regressed},
		{"gain too small for the parent spread", lat, around(100, -2, 2, -2, 2, -2, 2, -2, 2, -2, 2), around(98.5, -2, 2, -2, 2, -2, 2, -2, 2, -2, 2), unchanged},
	} {
		if _, _, got := judge(c.m, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRAAnswer(t *testing.T) {
	const blocks = 4
	for _, c := range []struct{ off, want int64 }{
		{0, 1}, {1, 2}, {4095, 2}, {4096, 1}, {3*4096 + 5, 1}, {4*4096 - 1, 1},
	} {
		if got := raAnswer(c.off, 4096, blocks); got != c.want {
			t.Errorf("raAnswer(%d) = %d, want %d", c.off, got, c.want)
		}
	}
}
