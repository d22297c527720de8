package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{1, 0.5, 1, 0},
		{4, 0.5, 2, 2}, // rank ceil(2) = 2
		{5, 0.5, 3, 2}, // rank ceil(2.5) = 3
		{100, 0.99, 99, 1},
		{1000, 0.99, 990, 10},
		{10, 1, 10, 0},
	} {
		got, beyond := nearestRank(seq(tc.n), tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("nearestRank(1..%d, %v) = %v (%d beyond), want %v (%d beyond)", tc.n, tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, _ := nearestRank(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty sample: got %v, want NaN", v)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, beyond, ok := tailPercentile(seq(999), 0.99); ok || beyond != 9 {
		t.Errorf("999 samples: ok=%v beyond=%d, want refused with 9 beyond", ok, beyond)
	}
	if v, beyond, ok := tailPercentile(seq(1000), 0.99); !ok || beyond != 10 || v != 990 {
		t.Errorf("1000 samples: %v, %d beyond, ok=%v; want 990, 10, true", v, beyond, ok)
	}
}

func TestFailuresMissTheTail(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // 11 failed requests: more than the 1% beyond p99
	}
	if v, _, ok := tailPercentile(xs, 0.99); ok || !math.IsInf(v, 1) {
		t.Errorf("p99 with 1.1%% failures = %v ok=%v, want +Inf refused", v, ok)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}
