// Compiled-path implementations: every op that can write its forward
// output into a caller-planned destination implements
// graph.ForwardIntoOp here, and the elementwise family additionally
// implements graph.InplaceOp / graph.NoopOp / graph.ReshapeOp so the
// compiler can fuse or elide it. Two contracts govern this file:
//
//   - Bit identity. Each ForwardInto/ForwardInplace must produce values
//     bit-identical to the op's Forward/ForwardArena: same expression,
//     same evaluation order, same float64→float32 cast points. That is
//     why the batch-norm family is folded by re-running its exact
//     inference affine in place rather than by folding the statistics
//     into conv weights, which would change the rounding.
//   - No destination allocation. dst is a fixed slab window; any
//     transient workspace comes from the arena and is returned before
//     the call ends, so a warmed compiled program allocates nothing.
package nn

import (
	"fmt"
	"math"

	"splitcnn/internal/autotune"
	"splitcnn/internal/tensor"
)

// ---- Conv ----

// ForwardInto implements graph.ForwardIntoOp. It consults the same
// autotuned dispatch as Forward/ForwardArena, so the interpreted and
// compiled paths always run the same backend for a given shape and
// stay bit-identical to each other; every backend's Into entry takes
// scratch from the pool or arena only, keeping the warmed compiled
// forward allocation-free.
func (c *Conv) ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	var bias *tensor.Tensor
	if c.HasBias {
		bias = in[2]
	}
	switch c.algo(in[0], in[1]) {
	case autotune.Winograd:
		tensor.Conv2DWinogradInto(dst, in[0], in[1], bias, c.Params)
	default:
		tensor.Conv2DInto(a, dst, in[0], in[1], bias, c.Params)
	}
}

// ---- ReLU ----

// ForwardInto implements graph.ForwardIntoOp.
func (ReLU) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	tensor.ReLU(dst, in[0])
}

// CanRunInplace implements graph.InplaceOp: always legal.
func (ReLU) CanRunInplace() bool { return true }

// ForwardInplace implements graph.InplaceOp (tensor.ReLU documents that
// dst may alias x).
func (ReLU) ForwardInplace(x *tensor.Tensor, _ []*tensor.Tensor) {
	tensor.ReLU(x, x)
}

// ---- Dropout ----

// identity reports whether the op forwards its input unchanged.
func (d *Dropout) identity() bool { return !d.Training || d.Rng == nil || d.P <= 0 }

// IsNoop implements graph.NoopOp: inference-mode dropout is elided.
func (d *Dropout) IsNoop() bool { return d.identity() }

// ForwardInto implements graph.ForwardIntoOp. Training mode draws the
// same per-element Rng sequence as Forward/ForwardArena, so a compiled
// forward and an interpreted forward over fresh ops with identically
// seeded Rngs produce bit-identical outputs.
func (d *Dropout) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	x := in[0]
	if d.identity() {
		dst.CopyFrom(x)
		return
	}
	scale := float32(1 / (1 - d.P))
	od := dst.Data()
	for i, v := range x.Data() {
		if d.Rng.Float64() >= d.P {
			od[i] = v * scale
		} else {
			od[i] = 0
		}
	}
}

// ---- Flatten ----

// IsReshape implements graph.ReshapeOp: the compiler replaces flatten
// with a view of the producer's storage.
func (Flatten) IsReshape() bool { return true }

// ForwardInto implements graph.ForwardIntoOp (the materialized
// fallback when the input is not slab-backed).
func (Flatten) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	dst.CopyFrom(in[0])
}

// ---- Linear ----

// ForwardInto implements graph.ForwardIntoOp.
func (Linear) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	x, w, b := in[0], in[1], in[2]
	n, k := x.Shape()[0], w.Shape()[0]
	tensor.MatMulBT(dst, x, w)
	for r := 0; r < n; r++ {
		row := dst.Data()[r*k : (r+1)*k]
		for i := range row {
			row[i] += b.Data()[i]
		}
	}
}

// ---- Pooling ----

// ForwardInto implements graph.ForwardIntoOp. The forward-only compiled
// path never runs backward, so the argmax stash is skipped entirely.
func (m *MaxPool) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	tensor.MaxPool2DInto(dst, nil, in[0], m.Params)
}

// ForwardInto implements graph.ForwardIntoOp.
func (ap *AvgPool) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	tensor.AvgPool2DInto(dst, in[0], ap.Params)
}

// ForwardInto implements graph.ForwardIntoOp.
func (GlobalAvgPool) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	s := in[0].Shape()
	p := tensor.ConvParams{KH: s.H(), KW: s.W(), SH: s.H(), SW: s.W()}
	tensor.AvgPool2DInto(dst, in[0], p)
}

// ---- Add ----

// ForwardInto implements graph.ForwardIntoOp.
func (a *Add) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	dst.CopyFrom(in[0])
	for _, x := range in[1:] {
		tensor.AXPY(dst, 1, x)
	}
}

// ---- SoftmaxCrossEntropy ----

// ForwardInto implements graph.ForwardIntoOp; the probability matrix is
// transient scratch here (no backward pass will read it).
func (SoftmaxCrossEntropy) ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	logits, labels := in[0], in[1]
	n, k := logits.Shape()[0], logits.Shape()[1]
	probs := a.GetRaw(n, k)
	tensor.Softmax(probs, logits)
	var loss float64
	for r := 0; r < n; r++ {
		c := int(labels.Data()[r])
		if c < 0 || c >= k {
			panic(fmt.Sprintf("softmax_xent: label %d out of range [0,%d)", c, k))
		}
		p := float64(probs.At(r, c))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	a.Put(probs)
	dst.Data()[0] = float32(loss / float64(n))
}

// ---- BatchNorm family ----
//
// The inference affine uses per-channel constants m = float32(mean[ch])
// and is = float32(invStd[ch]) — the exact cast points of the Forward
// methods. bnEvalCache precomputes those casts once per running-stat
// version, so a warmed compiled forward neither allocates the float64
// scratch nor recomputes the square roots; the applied values are
// bit-identical because the cast expressions are unchanged.

type bnEvalCache struct {
	version   uint64
	eps       float64
	m32, is32 []float32
}

// refresh rebuilds the precast statistics if the state's version, the
// epsilon, or the channel count changed since the last call.
func (c *bnEvalCache) refresh(state *BNState, eps float64) {
	v := state.Version()
	if c.m32 != nil && c.version == v && c.eps == eps && len(c.m32) == len(state.RunningMean) {
		return
	}
	n := len(state.RunningMean)
	if len(c.m32) != n {
		c.m32 = make([]float32, n)
		c.is32 = make([]float32, n)
	}
	for ch := 0; ch < n; ch++ {
		c.m32[ch] = float32(state.RunningMean[ch])
		c.is32[ch] = float32(1 / math.Sqrt(state.RunningVar[ch]+eps))
	}
	c.version, c.eps = v, eps
}

// bnBatchStats32 computes training-mode batch statistics exactly as the
// Forward methods do — float64 accumulation, the same variance clamp —
// updates the running estimates, and returns the precast per-channel
// constants.
func bnBatchStats32(x *tensor.Tensor, state *BNState, eps float64) (m32, is32 []float32) {
	s := x.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	cnt := float64(n * plane)
	mean := make([]float64, c)
	variance := make([]float64, c)
	m32 = make([]float32, c)
	is32 = make([]float32, c)
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
		m32[ch] = float32(m)
		is32[ch] = float32(1 / math.Sqrt(v+eps))
	}
	state.Update(mean, variance)
	return m32, is32
}

// bnApply runs the normalization affine (and optional leaky ReLU with
// the given slope; slope < 0 means no activation) writing dst, which
// may alias x: each element is read once before it is written.
func bnApply(dst, x, gamma, beta *tensor.Tensor, m32, is32 []float32, slope float32) {
	s := x.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g, bt := gamma.Data()[ch], beta.Data()[ch]
			m, is := m32[ch], is32[ch]
			src := x.Data()[base : base+plane]
			out := dst.Data()[base : base+plane]
			if slope < 0 {
				for i, v := range src {
					out[i] = (v-m)*is*g + bt
				}
			} else {
				for i, v := range src {
					z := (v-m)*is*g + bt
					if z < 0 {
						z *= slope
					}
					out[i] = z
				}
			}
		}
	}
}

// stats32 returns the per-channel constants for the op's current mode:
// cached running statistics in inference, fresh batch statistics (with
// the side-effecting running update, exactly like Forward) in training.
func (b *BatchNorm) stats32(x *tensor.Tensor) (m32, is32 []float32) {
	if b.Training {
		return bnBatchStats32(x, b.State, b.Eps)
	}
	b.cache.refresh(b.State, b.Eps)
	return b.cache.m32, b.cache.is32
}

// ForwardInto implements graph.ForwardIntoOp. Training mode computes
// batch statistics and updates the running estimates, exactly like
// Forward (the compiled path is forward-only; nothing is stashed).
func (b *BatchNorm) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	m32, is32 := b.stats32(in[0])
	bnApply(dst, in[0], in[1], in[2], m32, is32, -1)
}

// CanRunInplace implements graph.InplaceOp: only the inference affine
// is folded; training-mode BN stays a regular step so the batch
// statistics and running-estimate update remain a single visible op.
// (BatchNorm deliberately does NOT implement InPlaceEligible — that
// marker feeds the hmms storage-sharing planner, whose plans for BN
// layers are pinned by existing tests; the compiler treats the marker
// as a veto when present, not a requirement.)
func (b *BatchNorm) CanRunInplace() bool { return !b.Training }

// ForwardInplace implements graph.InplaceOp.
func (b *BatchNorm) ForwardInplace(x *tensor.Tensor, in []*tensor.Tensor) {
	m32, is32 := b.stats32(x)
	bnApply(x, x, in[1], in[2], m32, is32, -1)
}

func (b *BNReLU) stats32(x *tensor.Tensor) (m32, is32 []float32) {
	if b.Training {
		return bnBatchStats32(x, b.State, b.Eps)
	}
	b.cache.refresh(b.State, b.Eps)
	return b.cache.m32, b.cache.is32
}

// ForwardInto implements graph.ForwardIntoOp.
func (b *BNReLU) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) {
	m32, is32 := b.stats32(in[0])
	bnApply(dst, in[0], in[1], in[2], m32, is32, float32(b.Slope))
}

// CanRunInplace implements graph.InplaceOp (see BatchNorm.CanRunInplace).
func (b *BNReLU) CanRunInplace() bool { return !b.Training }

// ForwardInplace implements graph.InplaceOp.
func (b *BNReLU) ForwardInplace(x *tensor.Tensor, in []*tensor.Tensor) {
	m32, is32 := b.stats32(x)
	bnApply(x, x, in[1], in[2], m32, is32, float32(b.Slope))
}
