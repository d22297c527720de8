package nn

import (
	"fmt"
	"math"

	"splitcnn/internal/tensor"
)

// BNReLU is the fused, memory-efficient In-Place Activated BatchNorm of
// Bulò et al. that §6.3 adopts to raise ResNet's offloadable fraction:
// y = LeakyReLU(γ·x̂ + β). Because the leaky activation is invertible,
// the backward pass reconstructs x̂ from the stashed *output* alone —
// the layer's input feature map never needs to be kept (or offloaded),
// halving the conv→BN→activation block's stash footprint.
type BNReLU struct {
	State *BNState
	Eps   float64
	// Slope is the negative-side slope of the leaky activation; it must
	// be positive so the activation is invertible.
	Slope    float64
	Training bool
	// cache holds the precast inference statistics for the compiled
	// execution path (see compiled.go).
	cache bnEvalCache
}

// NewBNReLU returns a train-mode fused BN+LeakyReLU bound to state.
func NewBNReLU(state *BNState) *BNReLU {
	return &BNReLU{State: state, Eps: 1e-5, Slope: 0.01, Training: true}
}

// Kind implements graph.Op.
func (b *BNReLU) Kind() string { return "bnrelu" }

// SetTraining implements graph.ModalOp: inference mode normalizes with
// the running statistics and never updates them.
func (b *BNReLU) SetTraining(training bool) { b.Training = training }

// PatchwiseSafe reports that the op may be applied per spatial patch.
func (b *BNReLU) PatchwiseSafe() bool { return true }

// InPlaceEligible marks the op as computable in place.
func (b *BNReLU) InPlaceEligible() bool { return true }

// OutShape implements graph.Op.
func (b *BNReLU) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("bnrelu: want x, gamma, beta")
	}
	if len(in[0]) != 4 {
		return nil, fmt.Errorf("bnrelu: want NCHW input, got %v", in[0])
	}
	c := in[0].C()
	if len(in[1]) != 1 || in[1][0] != c || len(in[2]) != 1 || in[2][0] != c {
		return nil, fmt.Errorf("bnrelu: gamma %v / beta %v incompatible with %v", in[1], in[2], in[0])
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op. It allocates from the heap whatever the
// arena.
func (b *BNReLU) Forward(_ *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	x, gamma, beta := in[0], in[1], in[2]
	s := x.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	cnt := float64(n * plane)
	mean := make([]float64, c)
	variance := make([]float64, c)
	invStd := make([]float64, c)
	if b.Training {
		for ch := 0; ch < c; ch++ {
			var sum, sq float64
			for bi := 0; bi < n; bi++ {
				base := (bi*c + ch) * plane
				for _, v := range x.Data()[base : base+plane] {
					f := float64(v)
					sum += f
					sq += f * f
				}
			}
			m := sum / cnt
			v := max(sq/cnt-m*m, 0)
			mean[ch] = m
			variance[ch] = v
			invStd[ch] = 1 / math.Sqrt(v+b.Eps)
		}
		b.State.Update(mean, variance)
	} else {
		for ch := 0; ch < c; ch++ {
			mean[ch] = b.State.RunningMean[ch]
			invStd[ch] = 1 / math.Sqrt(b.State.RunningVar[ch]+b.Eps)
		}
	}
	out := tensor.New(s...)
	slope := float32(b.Slope)
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g, bt := gamma.Data()[ch], beta.Data()[ch]
			m, is := float32(mean[ch]), float32(invStd[ch])
			src := x.Data()[base : base+plane]
			dst := out.Data()[base : base+plane]
			for i, v := range src {
				z := (v-m)*is*g + bt
				if z < 0 {
					z *= slope
				}
				dst[i] = z
			}
		}
	}
	return out, &bnStash{mean: mean, invStd: invStd}
}

// Backward implements graph.Op: everything is reconstructed from the
// stashed output (x̂ = (inv-leaky(y) − β)/γ), so in[0] is nil. Like
// Forward, it allocates from the heap.
func (b *BNReLU) Backward(_ *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, _ []tensor.Shape, out *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	st := stash.(*bnStash)
	gamma := in[1]
	s := gradOut.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	cnt := float64(n * plane)
	slope := float32(b.Slope)

	// Reconstruct x̂ and the gradient flowing into the BN affine output.
	xhat := tensor.New(s...)
	gz := tensor.New(s...)
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g := gamma.Data()[ch]
			if g == 0 {
				g = 1e-12
			}
			bt := in[2].Data()[ch]
			ysrc := out.Data()[base : base+plane]
			gsrc := gradOut.Data()[base : base+plane]
			xd := xhat.Data()[base : base+plane]
			gzd := gz.Data()[base : base+plane]
			for i, y := range ysrc {
				z := y
				gv := gsrc[i]
				if y < 0 {
					z = y / slope
					gv *= slope
				}
				xd[i] = (z - bt) / g
				gzd[i] = gv
			}
		}
	}

	gGamma := tensor.New(c)
	gBeta := tensor.New(c)
	sumG := make([]float64, c)
	sumGX := make([]float64, c)
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			gsrc := gz.Data()[base : base+plane]
			xsrc := xhat.Data()[base : base+plane]
			var sg, sgx float64
			for i, g := range gsrc {
				sg += float64(g)
				sgx += float64(g) * float64(xsrc[i])
			}
			sumG[ch] += sg
			sumGX[ch] += sgx
		}
	}
	for ch := 0; ch < c; ch++ {
		gGamma.Data()[ch] = float32(sumGX[ch])
		gBeta.Data()[ch] = float32(sumG[ch])
	}

	gradX := tensor.New(s...)
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g := float64(gamma.Data()[ch])
			is := st.invStd[ch]
			gsrc := gz.Data()[base : base+plane]
			xsrc := xhat.Data()[base : base+plane]
			dst := gradX.Data()[base : base+plane]
			if b.Training {
				mG, mGX := sumG[ch]/cnt, sumGX[ch]/cnt
				for i, gv := range gsrc {
					dst[i] = float32(g * is * (float64(gv) - mG - float64(xsrc[i])*mGX))
				}
			} else {
				for i, gv := range gsrc {
					dst[i] = float32(g * is * float64(gv))
				}
			}
		}
	}
	gin[0], gin[1], gin[2] = gradX, gGamma, gBeta
}

// NeedsInput implements graph.Op: only gamma and beta are re-read.
func (b *BNReLU) NeedsInput(i int) bool { return i > 0 }

// NeedsOutput implements graph.Op.
func (b *BNReLU) NeedsOutput() bool { return true }

// FLOPs implements graph.Op.
func (b *BNReLU) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return 12 * int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op.
func (b *BNReLU) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
