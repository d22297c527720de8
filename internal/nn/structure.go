package nn

import (
	"fmt"

	"splitcnn/internal/tensor"
)

// Add sums any number of equally-shaped tensors — the residual summation
// of the ResNet family. Because ∂(Σxᵢ)/∂xᵢ = 1, every back-propagated
// error term is identical, which is what legalizes the Summation Error
// Storage Object Sharing optimization of §4.2 (HMMS detects ops of this
// kind and maps all input error tensors onto one TSO).
type Add struct{ N int }

// Kind implements graph.Op.
func (a *Add) Kind() string { return "add" }

// PatchwiseSafe reports that summation commutes with spatial splitting.
func (a *Add) PatchwiseSafe() bool { return true }

// SharedErrorStorage marks the op for summation-error TSO sharing.
func (a *Add) SharedErrorStorage() bool { return true }

// OutShape implements graph.Op.
func (a *Add) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != a.N || a.N < 2 {
		return nil, fmt.Errorf("add: want %d inputs, got %d", a.N, len(in))
	}
	for _, s := range in[1:] {
		if !s.Equal(in[0]) {
			return nil, fmt.Errorf("add: shape mismatch %v vs %v", s, in[0])
		}
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op.
func (a *Add) Forward(ar *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	out := ar.GetRaw(in[0].Shape()...)
	out.CopyFrom(in[0])
	for _, x := range in[1:] {
		tensor.AXPY(out, 1, x)
	}
	return out, nil
}

// Backward implements graph.Op: the same error flows to every addend,
// so every gin entry aliases gradOut, matching the storage-sharing
// optimization; the executor copies the aliases it cannot adopt.
func (a *Add) Backward(_ *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, _ []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	for i := range gin {
		gin[i] = gradOut
	}
}

// NeedsInput implements graph.Op.
func (a *Add) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (a *Add) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (a *Add) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return int64(len(in)-1) * int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op.
func (a *Add) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// ExtractPatch slices the spatial window [H0:H1) × [W0:W1) out of an
// NCHW tensor. Split-CNN inserts one per patch at the entry of a split
// region; its adjoint scatters the patch gradient back into a zero
// canvas.
type ExtractPatch struct {
	H0, H1, W0, W1 int
}

// Kind implements graph.Op.
func (e *ExtractPatch) Kind() string { return "extract_patch" }

// OutShape implements graph.Op.
func (e *ExtractPatch) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 || len(in[0]) != 4 {
		return nil, fmt.Errorf("extract_patch: want one NCHW input")
	}
	s := in[0]
	if e.H0 < 0 || e.H1 > s.H() || e.W0 < 0 || e.W1 > s.W() || e.H0 >= e.H1 || e.W0 >= e.W1 {
		return nil, fmt.Errorf("extract_patch: window [%d:%d)x[%d:%d) invalid for %v", e.H0, e.H1, e.W0, e.W1, s)
	}
	return tensor.Shape{s.N(), s.C(), e.H1 - e.H0, e.W1 - e.W0}, nil
}

// Forward implements graph.Op. It allocates from the heap whatever the
// arena; Backward recovers the input shape from inShapes, so nothing is
// stashed.
func (e *ExtractPatch) Forward(_ *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	x := in[0]
	s := x.Shape()
	n, c, h, w := s.N(), s.C(), s.H(), s.W()
	ph, pw := e.H1-e.H0, e.W1-e.W0
	out := tensor.New(n, c, ph, pw)
	for nc := 0; nc < n*c; nc++ {
		src := x.Data()[nc*h*w : (nc+1)*h*w]
		dst := out.Data()[nc*ph*pw : (nc+1)*ph*pw]
		for y := 0; y < ph; y++ {
			copy(dst[y*pw:(y+1)*pw], src[(y+e.H0)*w+e.W0:(y+e.H0)*w+e.W1])
		}
	}
	return out, nil
}

// Backward implements graph.Op.
func (e *ExtractPatch) Backward(_ *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	s := inShapes[0]
	n, c, h, w := s.N(), s.C(), s.H(), s.W()
	ph, pw := e.H1-e.H0, e.W1-e.W0
	gi := tensor.New(n, c, h, w)
	for nc := 0; nc < n*c; nc++ {
		src := gradOut.Data()[nc*ph*pw : (nc+1)*ph*pw]
		dst := gi.Data()[nc*h*w : (nc+1)*h*w]
		for y := 0; y < ph; y++ {
			copy(dst[(y+e.H0)*w+e.W0:(y+e.H0)*w+e.W1], src[y*pw:(y+1)*pw])
		}
	}
	gin[0] = gi
}

// NeedsInput implements graph.Op.
func (e *ExtractPatch) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (e *ExtractPatch) NeedsOutput() bool { return false }

// FLOPs implements graph.Op (pure data movement).
func (e *ExtractPatch) FLOPs([]tensor.Shape, tensor.Shape) int64 { return 0 }

// WorkspaceBytes implements graph.Op.
func (e *ExtractPatch) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// ConcatPatches reassembles an NH×NW grid of spatial patches into one
// feature map — the join point [Y_0, ..., Y_{n}]_D at the end of a split
// region. Inputs are patches in row-major (H-major) order; patches in
// one grid row must agree on H, patches in one grid column on W.
type ConcatPatches struct {
	NH, NW int
}

// Kind implements graph.Op.
func (c *ConcatPatches) Kind() string { return "concat_patches" }

// OutShape implements graph.Op.
func (c *ConcatPatches) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if c.NH < 1 || c.NW < 1 || len(in) != c.NH*c.NW {
		return nil, fmt.Errorf("concat_patches: want %dx%d inputs, got %d", c.NH, c.NW, len(in))
	}
	n, ch := in[0].N(), in[0].C()
	totalH := 0
	for i := 0; i < c.NH; i++ {
		rowH := in[i*c.NW].H()
		totalH += rowH
		for j := 0; j < c.NW; j++ {
			s := in[i*c.NW+j]
			if s.N() != n || s.C() != ch {
				return nil, fmt.Errorf("concat_patches: N/C mismatch %v vs %v", s, in[0])
			}
			if s.H() != rowH {
				return nil, fmt.Errorf("concat_patches: H mismatch in row %d: %v", i, s)
			}
		}
	}
	totalW := 0
	for j := 0; j < c.NW; j++ {
		colW := in[j].W()
		totalW += colW
		for i := 0; i < c.NH; i++ {
			if in[i*c.NW+j].W() != colW {
				return nil, fmt.Errorf("concat_patches: W mismatch in column %d", j)
			}
		}
	}
	return tensor.Shape{n, ch, totalH, totalW}, nil
}

// Forward implements graph.Op. It allocates from the heap whatever the
// arena.
func (c *ConcatPatches) Forward(_ *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	rows := make([]*tensor.Tensor, c.NH)
	for i := 0; i < c.NH; i++ {
		rows[i] = tensor.ConcatSpatial(in[i*c.NW:(i+1)*c.NW], tensor.DimW)
	}
	return tensor.ConcatSpatial(rows, tensor.DimH), nil
}

// Backward implements graph.Op: split the gradient back into patches
// at the boundaries the input shapes place.
func (c *ConcatPatches) Backward(_ *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	hStarts, wStarts := make([]int, c.NH), make([]int, c.NW)
	for i, off := 0, 0; i < c.NH; i++ {
		hStarts[i] = off
		off += inShapes[i*c.NW].H()
	}
	for j, off := 0, 0; j < c.NW; j++ {
		wStarts[j] = off
		off += inShapes[j].W()
	}
	for i, r := range tensor.SplitSpatial(gradOut, tensor.DimH, hStarts) {
		copy(gin[i*c.NW:(i+1)*c.NW], tensor.SplitSpatial(r, tensor.DimW, wStarts))
	}
}

// NeedsInput implements graph.Op.
func (c *ConcatPatches) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (c *ConcatPatches) NeedsOutput() bool { return false }

// FLOPs implements graph.Op (pure data movement).
func (c *ConcatPatches) FLOPs([]tensor.Shape, tensor.Shape) int64 { return 0 }

// WorkspaceBytes implements graph.Op.
func (c *ConcatPatches) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
