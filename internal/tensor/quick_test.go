package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickSplitConcatRoundTrip: for any valid random split of a random
// tensor along either spatial dimension, concatenation restores it.
func TestQuickSplitConcatRoundTrip(t *testing.T) {
	f := func(seed int64, dimRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(3), 1+rng.Intn(4)
		h, w := 2+rng.Intn(12), 2+rng.Intn(12)
		x := New(n, c, h, w)
		x.RandNormal(rng, 1)
		dim := DimH
		size := h
		if dimRaw {
			dim = DimW
			size = w
		}
		parts := 1 + rng.Intn(min(size, 4))
		starts := make([]int, 0, parts)
		used := map[int]bool{0: true}
		starts = append(starts, 0)
		for len(starts) < parts {
			s := rng.Intn(size)
			if !used[s] {
				used[s] = true
				starts = append(starts, s)
			}
		}
		// sort
		for i := 1; i < len(starts); i++ {
			for j := i; j > 0 && starts[j] < starts[j-1]; j-- {
				starts[j], starts[j-1] = starts[j-1], starts[j]
			}
		}
		pieces := SplitSpatial(x, dim, starts)
		back := ConcatSpatial(pieces, dim)
		return MaxAbsDiff(back, x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConvOutputSize: OutSize must agree with the actual tensor
// produced by Conv2D for random geometries, including negative padding
// (cropping).
func TestQuickConvOutputSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		s := 1 + rng.Intn(3)
		pad := Pad2D{
			Top: rng.Intn(k+2) - 1, Bottom: rng.Intn(k+2) - 1,
			Left: rng.Intn(k+2) - 1, Right: rng.Intn(k+2) - 1,
		}
		h := k + 2 + rng.Intn(10)
		w := k + 2 + rng.Intn(10)
		p := ConvParams{KH: k, KW: k, SH: s, SW: s, Pad: pad}
		oh, ow := p.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			return true // degenerate geometry; Conv2D would panic by design
		}
		x := New(1, 2, h, w)
		x.RandNormal(rng, 1)
		wt := New(3, 2, k, k)
		wt.RandNormal(rng, 1)
		out := Conv2D(x, wt, nil, p)
		return out.Shape().Equal(Shape{1, 3, oh, ow})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeCropConvMatchesManualCrop: negative padding must equal
// cropping the input before a zero-padding convolution.
func TestNegativeCropConvMatchesManualCrop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := New(1, 2, 8, 8)
	x.RandNormal(rng, 1)
	w := New(2, 2, 1, 1)
	w.RandNormal(rng, 1)
	// Crop one row at top via Pad.Top = -1.
	p := ConvParams{KH: 1, KW: 1, SH: 1, SW: 1, Pad: Pad2D{Top: -1}}
	got := Conv2D(x, w, nil, p)
	// Manual: slice rows 1..8 then conv without padding.
	parts := SplitSpatial(x, DimH, []int{0, 1})
	want := Conv2D(parts[1], w, nil, ConvParams{KH: 1, KW: 1, SH: 1, SW: 1})
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("shape %v vs %v", got.Shape(), want.Shape())
	}
	if d := MaxAbsDiff(got, want); d > 1e-6 {
		t.Fatalf("crop-conv mismatch %v", d)
	}
}

// TestQuickMatMulLinearity: matmul must be linear in its first argument.
func TestQuickMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a1, a2 := New(m, k), New(m, k)
		bm := New(k, n)
		a1.RandNormal(rng, 1)
		a2.RandNormal(rng, 1)
		bm.RandNormal(rng, 1)
		sum := New(m, k)
		Add(sum, a1, a2)
		lhs := New(m, n)
		MatMul(lhs, sum, bm)
		r1, r2 := New(m, n), New(m, n)
		MatMul(r1, a1, bm)
		MatMul(r2, a2, bm)
		rhs := New(m, n)
		Add(rhs, r1, r2)
		return MaxAbsDiff(lhs, rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPoolGradientMassConservation: max-pool backward scatters
// exactly the gradient mass it receives (no duplication, no loss) for
// unpadded, non-overlapping windows.
func TestQuickPoolGradientMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		h := k * (1 + rng.Intn(5))
		w := k * (1 + rng.Intn(5))
		x := New(2, 2, h, w)
		x.RandNormal(rng, 1)
		p := ConvParams{KH: k, KW: k, SH: k, SW: k}
		_, arg := MaxPool2DArena(nil, x, p)
		oh, ow := p.OutSize(h, w)
		g := New(2, 2, oh, ow)
		g.RandNormal(rng, 1)
		gi := MaxPool2DBackwardArena(nil, g, arg, p, 2, 2, h, w)
		diff := gi.Sum() - g.Sum()
		return diff < 1e-3 && diff > -1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
