package nn

import (
	"fmt"
	"math/rand"

	"splitcnn/internal/tensor"
)

// ReLU is the rectified-linear activation. Its backward pass reads only
// its *output*, never its input — the property that makes the in-place
// ReLU storage optimization of §4.2 legal (input and output tensors may
// share one TSO).
type ReLU struct{}

// Kind implements graph.Op.
func (ReLU) Kind() string { return "relu" }

// PatchwiseSafe reports that ReLU commutes with spatial splitting.
func (ReLU) PatchwiseSafe() bool { return true }

// InPlaceEligible marks the op as computable in place (§4.2).
func (ReLU) InPlaceEligible() bool { return true }

// OutShape implements graph.Op.
func (ReLU) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("relu: want one input")
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op.
func (ReLU) Forward(a *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	out := a.GetRaw(in[0].Shape()...)
	tensor.ReLU(out, in[0])
	return out, nil
}

// Backward implements graph.Op.
func (ReLU) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, _ []tensor.Shape, out *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	gi := a.GetRaw(gradOut.Shape()...)
	tensor.ReLUBackward(gi, gradOut, out)
	gin[0] = gi
}

// NeedsInput implements graph.Op.
func (ReLU) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (ReLU) NeedsOutput() bool { return true }

// FLOPs implements graph.Op.
func (ReLU) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 { return int64(in[0].Elems()) }

// WorkspaceBytes implements graph.Op.
func (ReLU) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// Dropout zeroes each element with probability P during training and
// scales survivors by 1/(1−P) (inverted dropout). A nil Rng or Training
// == false makes it the identity.
type Dropout struct {
	P        float64
	Training bool
	Rng      *rand.Rand
}

// Kind implements graph.Op.
func (d *Dropout) Kind() string { return "dropout" }

// SetTraining implements graph.ModalOp: inference mode makes dropout
// the identity.
func (d *Dropout) SetTraining(training bool) { d.Training = training }

// PatchwiseSafe reports that dropout commutes with spatial splitting.
func (d *Dropout) PatchwiseSafe() bool { return true }

// OutShape implements graph.Op.
func (d *Dropout) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("dropout: want one input")
	}
	return in[0].Clone(), nil
}

// Forward implements graph.Op. The stash is a float32 tensor holding
// the per-element scale (0 for dropped, 1/(1−P) for kept): a *Tensor
// crosses the stash `any` boundary without boxing, and the backward
// pass becomes one elementwise multiply.
func (d *Dropout) Forward(a *tensor.Arena, in []*tensor.Tensor) (*tensor.Tensor, any) {
	x := in[0]
	out := a.GetRaw(x.Shape()...)
	if !d.Training || d.Rng == nil || d.P <= 0 {
		out.CopyFrom(x)
		return out, nil
	}
	mask := a.GetRaw(x.Shape()...)
	scale := float32(1 / (1 - d.P))
	od, md := out.Data(), mask.Data()
	for i, v := range x.Data() {
		if d.Rng.Float64() >= d.P {
			md[i] = scale
			od[i] = v * scale
		} else {
			md[i] = 0
			od[i] = 0
		}
	}
	return out, mask
}

// Backward implements graph.Op; the stash, when non-nil, is the
// scale-mask tensor from Forward.
func (d *Dropout) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, _ []tensor.Shape, _ *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	gi := a.GetRaw(gradOut.Shape()...)
	if stash == nil {
		gi.CopyFrom(gradOut)
		gin[0] = gi
		return
	}
	mask := stash.(*tensor.Tensor)
	tensor.Mul(gi, gradOut, mask)
	a.Put(mask)
	gin[0] = gi
}

// NeedsInput implements graph.Op.
func (d *Dropout) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (d *Dropout) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (d *Dropout) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 { return int64(in[0].Elems()) }

// WorkspaceBytes implements graph.Op.
func (d *Dropout) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
