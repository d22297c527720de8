package nn

import (
	"fmt"
	"math"
	"sync"

	"splitcnn/internal/tensor"
)

// BNState holds the running statistics of one batch-normalization layer.
// States live outside the op so that independently built graphs (the
// unsplit network, split variants, per-minibatch stochastic rewrites)
// share them, exactly like trainable parameters do. The mutex guards
// running-statistic updates when data-parallel workers execute replicas
// concurrently (train.DataParallel).
type BNState struct {
	Name        string
	RunningMean []float64
	RunningVar  []float64
	Momentum    float64

	mu sync.Mutex
	// version counts Update calls; the compiled execution path uses it
	// to cache the precast inference statistics between forwards.
	version uint64
}

// Update folds fresh batch statistics into the running estimates.
func (s *BNState) Update(mean, variance []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	for ch := range mean {
		s.RunningMean[ch] = (1-s.Momentum)*s.RunningMean[ch] + s.Momentum*mean[ch]
		s.RunningVar[ch] = (1-s.Momentum)*s.RunningVar[ch] + s.Momentum*variance[ch]
	}
}

// Version returns the number of Update calls so far. Callers that
// mutate RunningMean/RunningVar directly (checkpoint restore) should
// call Invalidate instead of tracking versions themselves.
func (s *BNState) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Invalidate bumps the version so cached derived statistics are
// recomputed; call it after mutating the running statistics directly.
func (s *BNState) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
}

// NewBNState returns fresh running statistics for c channels.
func NewBNState(name string, c int) *BNState {
	s := &BNState{Name: name, RunningMean: make([]float64, c), RunningVar: make([]float64, c), Momentum: 0.1}
	for i := range s.RunningVar {
		s.RunningVar[i] = 1
	}
	return s
}

// BatchNorm normalizes each channel over (N, H, W). Graph inputs:
// x, gamma, beta.
//
// Two memory behaviours are supported, mirroring §6.3's adoption of
// In-Place Activated BatchNorm [Bulò et al.]:
//
//   - Recompute == false (default): the backward pass reads the stashed
//     input feature map, so BN contributes its input to the offload set —
//     this is what makes vanilla ResNet only ~55% offloadable (Fig. 1).
//   - Recompute == true: the backward pass reconstructs the normalized
//     activation from the layer *output* (x̂ = (y − β)/γ) and never needs
//     the input, trading a little arithmetic for offloadable bytes; the
//     paper reports this raises ResNet-18's offloadable fraction to 70%.
type BatchNorm struct {
	State     *BNState
	Eps       float64
	Recompute bool
	// Training selects batch statistics (true) or running statistics.
	Training bool
	// cache holds the precast inference statistics for the compiled
	// execution path (see compiled.go).
	cache bnEvalCache
}

// NewBatchNorm returns a train-mode batch normalization bound to state.
func NewBatchNorm(state *BNState) *BatchNorm {
	return &BatchNorm{State: state, Eps: 1e-5, Training: true}
}

type bnStash struct {
	mean, invStd []float64
}

// SetTraining implements graph.ModalOp: inference mode normalizes with
// the running statistics and never updates them.
func (b *BatchNorm) SetTraining(training bool) { b.Training = training }

// Kind implements graph.Op.
func (b *BatchNorm) Kind() string { return "batchnorm" }

// PatchwiseSafe reports that the op may be applied independently per
// spatial patch. Per-patch application computes statistics over the
// patch rather than the full feature map — precisely the semantic change
// Split-CNN embraces (§3).
func (b *BatchNorm) PatchwiseSafe() bool { return true }

// OutShape implements graph.Op.
func (b *BatchNorm) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("batchnorm: want x, gamma, beta")
	}
	x := in[0]
	if len(x) != 4 {
		return nil, fmt.Errorf("batchnorm: want NCHW input, got %v", x)
	}
	c := x.C()
	if len(in[1]) != 1 || in[1][0] != c || len(in[2]) != 1 || in[2][0] != c {
		return nil, fmt.Errorf("batchnorm: gamma %v / beta %v incompatible with %v", in[1], in[2], x)
	}
	return x.Clone(), nil
}

// Forward implements graph.Op. It allocates from the heap whatever the
// arena.
func (b *BatchNorm) Forward(_ *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	x, gamma, beta := in[0], in[1], in[2]
	s := x.Shape()
	n, c, h, w := s.N(), s.C(), s.H(), s.W()
	plane := h * w
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
			v := sq/cnt - m*m
			if v < 0 {
				v = 0
			}
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
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g, bt := gamma.Data()[ch], beta.Data()[ch]
			m, is := float32(mean[ch]), float32(invStd[ch])
			src := x.Data()[base : base+plane]
			dst := out.Data()[base : base+plane]
			for i, v := range src {
				dst[i] = (v-m)*is*g + bt
			}
		}
	}
	return out, &bnStash{mean: mean, invStd: invStd}
}

// Backward implements graph.Op. Like Forward, it allocates from the
// heap.
func (b *BatchNorm) Backward(_ *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, _ []tensor.Shape, out *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	st := stash.(*bnStash)
	gamma, beta := in[1], in[2]
	s := gradOut.Shape()
	n, c, h, w := s.N(), s.C(), s.H(), s.W()
	plane := h * w
	cnt := float64(n * plane)

	// xhat: either from the stashed input or recomputed from the output.
	xhat := tensor.New(s...)
	if b.Recompute {
		for bi := 0; bi < n; bi++ {
			for ch := 0; ch < c; ch++ {
				base := (bi*c + ch) * plane
				g, bt := gamma.Data()[ch], beta.Data()[ch]
				if g == 0 {
					g = 1e-12 // guard: γ=0 loses information; avoid Inf
				}
				src := out.Data()[base : base+plane]
				dst := xhat.Data()[base : base+plane]
				for i, v := range src {
					dst[i] = (v - bt) / g
				}
			}
		}
	} else {
		x := in[0]
		for bi := 0; bi < n; bi++ {
			for ch := 0; ch < c; ch++ {
				base := (bi*c + ch) * plane
				m, is := float32(st.mean[ch]), float32(st.invStd[ch])
				src := x.Data()[base : base+plane]
				dst := xhat.Data()[base : base+plane]
				for i, v := range src {
					dst[i] = (v - m) * is
				}
			}
		}
	}

	gGamma := tensor.New(c)
	gBeta := tensor.New(c)
	sumG := make([]float64, c)  // Σ gradOut per channel
	sumGX := make([]float64, c) // Σ gradOut·x̂ per channel
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			gsrc := gradOut.Data()[base : base+plane]
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
	var mg, mgx []float64
	if b.Training {
		mg, mgx = sumG, sumGX
	}
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g := float64(gamma.Data()[ch])
			is := st.invStd[ch]
			gsrc := gradOut.Data()[base : base+plane]
			xsrc := xhat.Data()[base : base+plane]
			dst := gradX.Data()[base : base+plane]
			if b.Training {
				mG, mGX := mg[ch]/cnt, mgx[ch]/cnt
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

// NeedsInput implements graph.Op: the input feature map is stashed only
// in the non-recompute variant; gamma and beta are always needed.
func (b *BatchNorm) NeedsInput(i int) bool {
	if i == 0 {
		return !b.Recompute
	}
	return true
}

// NeedsOutput implements graph.Op: the recompute variant reconstructs
// x̂ from the output instead.
func (b *BatchNorm) NeedsOutput() bool { return b.Recompute }

// FLOPs implements graph.Op: roughly 10 ops per element (two reduction
// passes plus the normalization) — a thoroughly memory-bound layer.
func (b *BatchNorm) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return 10 * int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op.
func (b *BatchNorm) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
