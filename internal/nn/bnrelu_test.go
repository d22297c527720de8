package nn_test

import (
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

func TestBNReLUForwardMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 3, 5, 5)
	x.RandNormal(rng, 1)
	gamma := tensor.New(3)
	gamma.RandUniform(rng, 0.5, 2)
	beta := tensor.New(3)
	beta.RandNormal(rng, 0.3)
	in := []*tensor.Tensor{x, gamma, beta}

	fused := nn.NewBNReLU(nn.NewBNState("a", 3))
	fusedOut, _ := fused.Forward(nil, in)

	bn := nn.NewBatchNorm(nn.NewBNState("b", 3))
	bnOut, _ := bn.Forward(nil, in)
	// Leaky ReLU with the same slope.
	want := bnOut.Clone()
	for i, v := range want.Data() {
		if v < 0 {
			want.Data()[i] = v * 0.01
		}
	}
	if d := tensor.MaxAbsDiff(fusedOut, want); d > 1e-5 {
		t.Fatalf("fused forward differs from BN+LeakyReLU by %v", d)
	}
}

func TestBNReLUGradient(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{3, 2, 4, 4})
	gamma := g.Param("bn.gamma", tensor.Shape{2})
	beta := g.Param("bn.beta", tensor.Shape{2})
	op := nn.NewBNReLU(nn.NewBNState("bn", 2))
	out := g.Add("bn", op, x, gamma, beta)
	g.SetOutput(out)

	rng := rand.New(rand.NewSource(2))
	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	store.Lookup("bn.gamma").Value.RandUniform(rng, 0.5, 1.5)
	store.Lookup("bn.beta").Value.RandUniform(rng, -0.5, 0.5)
	xt := tensor.New(3, 2, 4, 4)
	xt.RandNormal(rng, 1)
	// Central differences straddle the leaky kink for elements with
	// |z| < eps, so the tolerance is looser than for smooth ops.
	gradCheck(t, g, store, graph.Feeds{"x": xt}, 4, 0.25)
}

// TestBNReLUStashMetadata locks in the memory property that motivates
// the op: the input feature map is not needed in backward.
func TestBNReLUStashMetadata(t *testing.T) {
	op := nn.NewBNReLU(nn.NewBNState("bn", 4))
	if op.NeedsInput(0) {
		t.Fatal("BNReLU must not stash its input")
	}
	if !op.NeedsInput(1) || !op.NeedsInput(2) {
		t.Fatal("BNReLU needs gamma/beta")
	}
	if !op.NeedsOutput() {
		t.Fatal("BNReLU reconstructs from its output")
	}
}
