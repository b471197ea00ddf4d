package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{0.1, 1.4}, {0.99, 4.96},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median of two = %g, want 1.5", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample percentile = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10}, {1001, 0.99, 10}, {100, 0.99, 1}, {100, 0.5, 50},
		{1, 0.99, 0}, {0, 0.99, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}
