package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must leave
// beyond it: a p99 of 200 samples is the second-largest value and repeats
// nothing, a p99 of 4000 has 40 samples behind it.
const minBeyond = 10

// tailCandidates are the percentiles pickTail chooses from, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// pickTail returns the highest candidate percentile not above want that
// leaves at least minBeyond of n samples beyond it, or 50 when even p75
// does not (a tail cannot be reported from under 40 samples).
func pickTail(n int, want float64) float64 {
	for _, p := range tailCandidates {
		if p <= want && float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method), which is what the
// acceptance rule is stated in. Fewer than two values have no spread.
func quartileSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msOf converts durations to milliseconds for the percentile helpers.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
