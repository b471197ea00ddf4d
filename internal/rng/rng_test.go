package rng

import (
	"math"
	"testing"
)

// hashInputs spans the corners of Hash01's domain: zero, one, the
// extremes of each integer type, and a few arbitrary mid-range values.
var (
	hashSeeds = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	hashKeys  = []uint64{0, 1, 7, 1<<32 | 5, math.MaxUint64}
	hashNs    = []uint64{0, 1, 2, 1000, math.MaxUint64}
)

func TestHash01InUnitInterval(t *testing.T) {
	for _, s := range hashSeeds {
		for _, k := range hashKeys {
			for _, n := range hashNs {
				if v := Hash01(s, k, n); !(v >= 0 && v < 1) {
					t.Fatalf("Hash01(%d, %d, %d) = %v, outside [0, 1)", s, k, n, v)
				}
			}
		}
	}
	// A run of consecutive positions is roughly uniform: the mean of
	// 10k draws sits near 1/2.
	sum := 0.0
	for n := uint64(0); n < 10000; n++ {
		sum += Hash01(3, 11, n)
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean of 10k draws = %v, want about 0.5", mean)
	}
}

func TestHash01IsPure(t *testing.T) {
	// Draw a grid, draw unrelated values in between, then draw the grid
	// again in reverse order: every position reads the same value.
	first := map[[3]uint64]float64{}
	for _, s := range hashSeeds {
		for _, k := range hashKeys {
			for _, n := range hashNs {
				first[[3]uint64{uint64(s), k, n}] = Hash01(s, k, n)
			}
		}
	}
	for n := uint64(0); n < 100; n++ {
		Hash01(99, 99, n)
	}
	for i := len(hashSeeds) - 1; i >= 0; i-- {
		for _, k := range hashKeys {
			for _, n := range hashNs {
				s := hashSeeds[i]
				if got, want := Hash01(s, k, n), first[[3]uint64{uint64(s), k, n}]; got != want {
					t.Fatalf("Hash01(%d, %d, %d) = %v on redraw, first %v", s, k, n, got, want)
				}
			}
		}
	}
}

func TestHash01ChangesWithEveryKey(t *testing.T) {
	for _, s := range hashSeeds {
		for _, k := range hashKeys {
			for _, n := range hashNs {
				v := Hash01(s, k, n)
				if Hash01(s+1, k, n) == v {
					t.Fatalf("seed %d -> %d leaves Hash01(_, %d, %d) at %v", s, s+1, k, n, v)
				}
				if Hash01(s, k+1, n) == v {
					t.Fatalf("key %d -> %d leaves Hash01(%d, _, %d) at %v", k, k+1, s, n, v)
				}
				if Hash01(s, k, n+1) == v {
					t.Fatalf("n %d -> %d leaves Hash01(%d, %d, _) at %v", n, n+1, s, k, v)
				}
			}
		}
	}
}
