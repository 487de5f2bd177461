package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile. A percentile with fewer is refused rather than printed: it
// would be set by a handful of requests and move from run to run.
const minBeyond = 10

// quantile is one reported percentile of a sample set.
type quantile struct {
	Value   float64
	Samples int // size of the sample set
	Beyond  int // samples strictly greater than Value
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and
// refuses it when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (quantile, error) {
	if len(xs) == 0 {
		return quantile{}, fmt.Errorf("p%g of no samples", q*100)
	}
	if q <= 0 || q > 1 {
		return quantile{}, fmt.Errorf("percentile %g outside (0, 1]", q)
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	v := s[idx]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if beyond < minBeyond {
		return quantile{}, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(s), beyond, minBeyond)
	}
	return quantile{Value: v, Samples: len(s), Beyond: beyond}, nil
}

// median of a small set of repeated measurements (set-up times, per-layer
// replays). Even-sized sets average the two middle values.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("median of no samples")
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// quartiles returns the first quartile, median and third quartile with
// the exclusive method of Python's statistics.quantiles(xs, n=4), so the
// spread printed here matches the one the benchmark is judged by.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	if len(xs) < 2 {
		return q, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := sortedCopy(xs)
	n := len(s)
	for i := 1; i <= 3; i++ {
		// statistics.quantiles clamps j to [1, n-1], then interpolates
		// (or extrapolates, for tiny n) from the clamped index.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, nil
}

// relativeSpread is the interquartile range as a share of the median.
func relativeSpread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q[1] == 0 {
		return 0, fmt.Errorf("relative spread of a zero median")
	}
	return (q[2] - q[0]) / math.Abs(q[1]), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
