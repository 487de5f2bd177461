package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

// ties has 55 samples whose median value is shared by 30 of them, so
// only 5 lie strictly beyond it.
func ties() []float64 {
	var xs []float64
	for i := range 55 {
		switch {
		case i < 20:
			xs = append(xs, 1)
		case i < 50:
			xs = append(xs, 5)
		default:
			xs = append(xs, 9)
		}
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{21, 0.5, 11, 10},
		{1000, 0.99, 990, 10},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if err != nil {
			t.Fatalf("p%g of %d: %v", tc.q*100, tc.n, err)
		}
		if got.Value != tc.value || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("p%g of %d = %+v, want value %g with %d beyond", tc.q*100, tc.n, got, tc.value, tc.beyond)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"p90 of 99 samples", seq(99), 0.9},
		{"p50 of 19 samples", seq(19), 0.5},
		{"ties at the percentile", ties(), 0.5},
		{"no samples", nil, 0.5},
		{"q out of range", seq(100), 0},
	} {
		if got, err := percentile(tc.xs, tc.q); err == nil {
			t.Errorf("%s: got %+v, want refusal", tc.name, got)
		}
	}
}

func TestPercentileCountsInfiniteFailures(t *testing.T) {
	xs := seq(100)
	for i := range 10 {
		xs[i] = math.Inf(1)
	}
	got, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 90 {
		t.Errorf("p90 = %g, want 90: ten failed requests sit beyond it", got.Value)
	}
	if got, err := percentile(xs, 0.95); err == nil && !math.IsInf(got.Value, 1) {
		t.Errorf("p95 = %g, want a failed request or a refusal", got.Value)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		got, err := median(tc.xs)
		if err != nil || got != tc.want {
			t.Errorf("median(%v) = %g, %v; want %g", tc.xs, got, err, tc.want)
		}
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples: want an error")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 0.4, 0.7, 0.1, 0.3, 0.8, 0.2, 0.6, 0.5, 1.0, 0.35}, [3]float64{0.3, 0.5, 0.8}},
	} {
		got, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestRelativeSpread(t *testing.T) {
	got, err := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relative spread = %g, want %g", got, want)
	}
	if _, err := relativeSpread([]float64{-1, 0, 1}); err == nil {
		t.Error("zero median: want an error")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a.1", StartNs: 15, EndNs: 25},
	}}
	tr.selfTimes()
	want := map[string]int64{"request": 100 - 40 - 10, "a": 30 - 10, "b": 20, "c": 30, "a.1": 10}
	for _, s := range tr.spans {
		if s.SelfNs != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.SelfNs, want[s.Name])
		}
	}
}
