// Package nn implements the neural-network operations used by the
// paper's models: convolution, pooling, batch normalization (including
// the memory-efficient recompute variant of In-Place ABN), ReLU,
// dropout, fully-connected layers, softmax cross-entropy loss, residual
// summation, and the patch extraction/concatenation ops Split-CNN
// inserts. Every op implements graph.Op — real arithmetic plus the
// stash/FLOPs/workspace metadata the HMMS memory planner consumes.
//
// Window-based ops (Conv, MaxPool, AvgPool) additionally expose their
// window geometry via Window/WithPad so the Split-CNN transformation in
// internal/core can re-derive per-patch padding; pointwise ops report
// themselves patch-safe via PatchwiseSafe.
package nn

import (
	"fmt"

	"splitcnn/internal/autotune"
	"splitcnn/internal/graph"
	"splitcnn/internal/tensor"
)

// Conv is a 2-D convolution op. Graph inputs: x, weight[, bias].
type Conv struct {
	Params  tensor.ConvParams
	HasBias bool
}

// NewConv returns a convolution with square kernel k, stride s and
// symmetric padding p, with bias.
func NewConv(k, s, p int) *Conv {
	return &Conv{Params: tensor.ConvParams{KH: k, KW: k, SH: s, SW: s, Pad: tensor.Symmetric(p)}, HasBias: true}
}

// Kind implements graph.Op.
func (c *Conv) Kind() string { return "conv" }

// Window exposes the op's window geometry to the Split-CNN transform.
func (c *Conv) Window() tensor.ConvParams { return c.Params }

// WithPad returns a copy of the op with different padding — the per-patch
// instantiation primitive of §3.1.
func (c *Conv) WithPad(p tensor.Pad2D) graph.Op {
	cp := *c
	cp.Params.Pad = p
	return &cp
}

func (c *Conv) nin() int {
	if c.HasBias {
		return 3
	}
	return 2
}

// OutShape implements graph.Op.
func (c *Conv) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != c.nin() {
		return nil, fmt.Errorf("conv: %d inputs, want %d", len(in), c.nin())
	}
	x, w := in[0], in[1]
	if len(x) != 4 || len(w) != 4 {
		return nil, fmt.Errorf("conv: want NCHW x and OIHW weight, got %v, %v", x, w)
	}
	if w[1] != x.C() || w[2] != c.Params.KH || w[3] != c.Params.KW {
		return nil, fmt.Errorf("conv: weight %v incompatible with x %v and kernel (%d,%d)", w, x, c.Params.KH, c.Params.KW)
	}
	if c.HasBias && (len(in[2]) != 1 || in[2][0] != w[0]) {
		return nil, fmt.Errorf("conv: bias %v incompatible with weight %v", in[2], w)
	}
	oh, ow := c.Params.OutSize(x.H(), x.W())
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv: output size (%d,%d) for input %v", oh, ow, x)
	}
	return tensor.Shape{x.N(), w[0], oh, ow}, nil
}

// algo consults the process-wide autotuner for the algorithm to run on
// this call's shapes. With no tuned plan this is exactly the historic
// heuristic (Winograd when it applies, else im2col), so every untuned
// path — and every bit-identity test — behaves as before.
func (c *Conv) algo(x, weight *tensor.Tensor) autotune.Algo {
	return autotune.Default.Choose(c.Params, x.Shape(), weight.Shape()[0])
}

// Forward implements graph.Op. The backend is chosen per shape by the
// autotuner; the untuned default is the Winograd F(2x2, 3x3) fast path
// for 3x3 stride-1 convolutions — the very algorithm whose adoption
// §2.2.1 blames for making layers memory-bound — and im2col otherwise.
func (c *Conv) Forward(a *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	var bias *tensor.Tensor
	if c.HasBias {
		bias = in[2]
	}
	switch c.algo(in[0], in[1]) {
	case autotune.Winograd:
		return tensor.Conv2DWinogradArena(a, in[0], in[1], bias, c.Params), nil
	default:
		return tensor.Conv2DArena(a, in[0], in[1], bias, c.Params), nil
	}
}

// Backward implements graph.Op.
func (c *Conv) Backward(a *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, _ []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	x, w := in[0], in[1]
	gw := a.Get(w.Shape()...) // zeroed: the weight-gradient GEMM accumulates
	var gb *tensor.Tensor
	if c.HasBias {
		gb = a.Get(w.Shape()[0])
	}
	gx := tensor.Conv2DBackwardArena(a, x, w, gradOut, c.Params, gw, gb, true)
	gin[0], gin[1] = gx, gw
	if c.HasBias {
		gin[2] = gb
	}
}

// NeedsInput implements graph.Op: the input feature map and the weights
// are both read again in the backward pass; the bias is not.
func (c *Conv) NeedsInput(i int) bool { return i <= 1 }

// NeedsOutput implements graph.Op.
func (c *Conv) NeedsOutput() bool { return false }

// FLOPs implements graph.Op: 2·N·Cout·OH·OW·Cin·KH·KW multiply-adds.
func (c *Conv) FLOPs(in []tensor.Shape, out tensor.Shape) int64 {
	x := in[0]
	return 2 * int64(out.Elems()) * int64(x.C()) * int64(c.Params.KH) * int64(c.Params.KW)
}

// MaxConvWorkspaceBytes bounds any single convolution's scratch space,
// mirroring the workspace limit deep-learning frameworks hand cuDNN
// when choosing an algorithm (1 GiB here).
const MaxConvWorkspaceBytes = 1 << 30

// WorkspaceBytes implements graph.Op: the convolution scratch buffer,
// this repository's analogue of the cuDNN workspace whose reuse across
// patches is one of the two memory wins of §6.3. With a tuned Winograd
// plan the declared workspace is Winograd's transformed tiles; every
// other site keeps the historic estimate — the full im2col
// lowering capped at twice the input+output footprint and at the
// framework workspace limit — preserving the property that matters to
// Split-CNN: workspace scales with the layer and shrinks per patch.
func (c *Conv) WorkspaceBytes(in []tensor.Shape, out tensor.Shape) int64 {
	x := in[0]
	if algo, ok := autotune.Default.Plan(c.Params, x, out.C()); ok && algo == autotune.Winograd {
		return min(tensor.WinogradWorkspaceBytes(x, out.C(), c.Params), MaxConvWorkspaceBytes)
	}
	oh, ow := out.H(), out.W()
	im2col := int64(x.C()*c.Params.KH*c.Params.KW) * int64(x.N()*oh*ow) * 4
	return min(im2col, 2*(x.Bytes()+out.Bytes()), MaxConvWorkspaceBytes)
}
