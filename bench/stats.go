package main

import "sort"

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile reads quantile q of an ascending slice, interpolating
// between neighbours; 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// zeroSteal fits y = at0 + slope*steal through one point per episode
// and returns the value at zero steal. The fit is Theil-Sen (the median
// of the slopes between all pairs of points, then the median residual),
// which a few episodes hit by something else do not move. The slope is
// held at or above zero: taking processor time away cannot make an
// episode faster. Without steal (another operating system, a quiet
// host) every slope is undefined or zero and at0 is the median of y.
// at0 is never above that median, and it is held at or above half the
// smallest y: a run in which every episode lost most of its time has
// nothing near zero steal to read, and a figure extrapolated to less
// than half of anything observed (or to nothing, or below) is not one.
func zeroSteal(steal, y []float64) (at0, slope float64) {
	var slopes []float64
	for i := range y {
		for j := i + 1; j < len(y); j++ {
			if steal[i] != steal[j] {
				slopes = append(slopes, (y[j]-y[i])/(steal[j]-steal[i]))
			}
		}
	}
	if len(slopes) > 0 {
		slope = max(0, median(slopes))
	}
	rest := make([]float64, len(y))
	for i := range y {
		rest[i] = y[i] - slope*steal[i]
	}
	return max(median(rest), sorted(y)[0]/2), slope
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is how the benchmark's acceptance
// rule measures spread. It needs two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
