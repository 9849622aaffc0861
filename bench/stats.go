package main

import (
	"math"
	"sort"
	"time"
)

// latencies records per-op host latencies exactly, in nanoseconds. Fast
// ops land in a fixed array of one-nanosecond buckets, so a run of
// millions of dispatches costs 512 KiB however long it runs; slower ops
// are kept individually.
type latencies struct {
	fine [1 << 17]uint32
	slow []int64
	n    int
}

func (l *latencies) reset() {
	clear(l.fine[:])
	l.slow = l.slow[:0]
	l.n = 0
}

func (l *latencies) add(d time.Duration) {
	l.n++
	if ns := int64(d); ns >= 0 && ns < int64(len(l.fine)) {
		l.fine[ns]++
		return
	}
	l.slow = append(l.slow, int64(d))
}

// rank is the nearest-rank position (1-based) of percentile p among n
// samples.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile in nanoseconds.
func (l *latencies) percentile(p int) int64 {
	r := rank(p, l.n)
	seen := 0
	for ns, c := range l.fine {
		seen += int(c)
		if seen >= r {
			return int64(ns)
		}
	}
	sort.Slice(l.slow, func(i, j int) bool { return l.slow[i] < l.slow[j] })
	return l.slow[r-seen-1]
}

// tailPercentile picks the tail percentile to report for n samples: the
// higher of p99 and p90 that still has at least ten samples beyond it,
// or the median when neither has. Higher percentiles are left out on
// purpose: with millions of dispatches p99.9 measures host interrupts
// and GC pauses, not the simulator.
func tailPercentile(n int) int {
	for _, p := range []int{99, 90} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive").
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
