package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so percentile must sort
	}
	return out
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{100, 0.9, true},
		{99, 0.9, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", c.p*100, c.n, err, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, err := percentile(seq(1000), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.p*100, got, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %v", got)
	}
}
