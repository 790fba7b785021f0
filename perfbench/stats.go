package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile for it to be trusted.
const tailMinBeyond = 10

// tailLadder lists the percentiles the tail is chosen from, highest first.
// p90 keeps well over tailMinBeyond samples beyond it on every workload even
// on a host running at half speed, so every run reports the same
// percentile. None is higher: on a shared host p99 follows the rare stalls
// of other tenants more than the program (browse's p99 spread by over a
// third of its median between sets of runs of the same code).
var tailLadder = []float64{90, 75, 50}

// tail returns the latency at the highest ladder percentile that has at
// least tailMinBeyond samples beyond it (nearest rank: the value at rank
// ceil(p/100*n) of the n sorted samples, with n minus that rank beyond it).
// With too few samples for any of them it falls back to the maximum, with
// nothing beyond.
func tail(xs []float64) (value, percentile float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // guard against p/100*n rounding up
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailMinBeyond {
			return s[rank-1], p, n - rank
		}
	}
	return s[n-1], 100, 0
}

// interval is a closed span of time in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by the intervals, counting
// overlapping stretches once, after clipping each to [lo, hi].
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	var curLo, curHi int64
	for i, iv := range clipped {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	total += curHi - curLo
	return total
}

// fmtNum renders a metric for the human-readable report.
func fmtNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
