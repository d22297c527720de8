package nn_test

import (
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// backward runs op's Backward with a nil (heap) arena and returns the
// input gradients.
func backward(op graph.Op, gradOut *tensor.Tensor, in []*tensor.Tensor, inShapes []tensor.Shape, out *tensor.Tensor, stash any) []*tensor.Tensor {
	gin := make([]*tensor.Tensor, len(inShapes))
	op.Backward(nil, gradOut, in, inShapes, out, stash, gin)
	return gin
}

// shapesOf returns the shapes of ts, the inShapes of an op call.
func shapesOf(ts ...*tensor.Tensor) []tensor.Shape {
	out := make([]tensor.Shape, len(ts))
	for i, t := range ts {
		out[i] = t.Shape()
	}
	return out
}

// gradCheck numerically validates d sum(output) / d param for every
// parameter of the graph (probing a handful of coordinates each) and,
// when inputName is non-empty, for that input as well.
func gradCheck(t *testing.T, g *graph.Graph, store *graph.ParamStore, feeds graph.Feeds, probes int, tol float64) {
	t.Helper()
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	store.ZeroGrads()
	if _, err := ex.Forward(feeds); err != nil {
		t.Fatalf("forward: %v", err)
	}
	if err := ex.Backward(); err != nil {
		t.Fatalf("backward: %v", err)
	}
	lossAt := func() float64 {
		ex2, err := graph.NewExecutor(g, store)
		if err != nil {
			t.Fatalf("executor: %v", err)
		}
		outs, err := ex2.Forward(feeds)
		if err != nil {
			t.Fatalf("forward: %v", err)
		}
		var s float64
		for _, o := range outs {
			s += o.Sum()
		}
		return s
	}
	rng := rand.New(rand.NewSource(99))
	const eps = 1e-2
	for _, p := range store.All() {
		for probe := 0; probe < probes; probe++ {
			idx := rng.Intn(p.Value.Elems())
			orig := p.Value.Data()[idx]
			p.Value.Data()[idx] = orig + eps
			up := lossAt()
			p.Value.Data()[idx] = orig - eps
			down := lossAt()
			p.Value.Data()[idx] = orig
			num := (up - down) / (2 * eps)
			got := float64(p.Grad.Data()[idx])
			if d := num - got; d > tol || d < -tol {
				t.Errorf("param %s[%d]: analytic %v vs numeric %v", p.Name, idx, got, num)
			}
		}
	}
}

func TestConvGradThroughGraph(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{2, 2, 6, 6})
	w := g.Param("c1.w", tensor.Shape{3, 2, 3, 3})
	b := g.Param("c1.b", tensor.Shape{3})
	out := g.Add("c1", nn.NewConv(3, 1, 1), x, w, b)
	g.SetOutput(out)

	rng := rand.New(rand.NewSource(1))
	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	xt := tensor.New(2, 2, 6, 6)
	xt.RandNormal(rng, 1)
	gradCheck(t, g, store, graph.Feeds{"x": xt}, 10, 0.05)
}

func TestBatchNormGradThroughGraph(t *testing.T) {
	for _, recompute := range []bool{false, true} {
		g := graph.New()
		x := g.Input("x", tensor.Shape{3, 2, 4, 4})
		gamma := g.Param("bn.gamma", tensor.Shape{2})
		beta := g.Param("bn.beta", tensor.Shape{2})
		bn := nn.NewBatchNorm(nn.NewBNState("bn", 2))
		bn.Recompute = recompute
		out := g.Add("bn", bn, x, gamma, beta)
		g.SetOutput(out)

		rng := rand.New(rand.NewSource(2))
		store := graph.NewParamStore()
		store.InitFromGraph(g, rng, nn.KaimingInit)
		// Perturb gamma/beta away from the (1, 0) init so the check is
		// non-trivial.
		store.Lookup("bn.gamma").Value.RandUniform(rng, 0.5, 1.5)
		store.Lookup("bn.beta").Value.RandUniform(rng, -0.5, 0.5)
		xt := tensor.New(3, 2, 4, 4)
		xt.RandNormal(rng, 1)
		gradCheck(t, g, store, graph.Feeds{"x": xt}, 4, 0.05)
	}
}

// TestBatchNormRecomputeMatchesStandard verifies the In-Place ABN
// variant produces the same input gradient as the standard formulation.
func TestBatchNormRecomputeMatchesStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(2, 3, 5, 5)
	x.RandNormal(rng, 1)
	gamma := tensor.New(3)
	gamma.RandUniform(rng, 0.5, 2)
	beta := tensor.New(3)
	beta.RandNormal(rng, 0.3)
	gradOut := tensor.New(2, 3, 5, 5)
	gradOut.RandNormal(rng, 1)

	run := func(recompute bool) []*tensor.Tensor {
		bn := nn.NewBatchNorm(nn.NewBNState("bn", 3))
		bn.Recompute = recompute
		in := []*tensor.Tensor{x, gamma, beta}
		out, stash := bn.Forward(nil, in)
		if recompute {
			return backward(bn, gradOut, []*tensor.Tensor{nil, gamma, beta}, shapesOf(in...), out, stash)
		}
		return backward(bn, gradOut, in, shapesOf(in...), nil, stash)
	}
	std := run(false)
	rec := run(true)
	for i := range std {
		if d := tensor.MaxAbsDiff(std[i], rec[i]); d > 1e-3 {
			t.Fatalf("grad %d differs by %v between standard and recompute BN", i, d)
		}
	}
}

func TestLinearGradThroughGraph(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{4, 6})
	w := g.Param("fc.w", tensor.Shape{3, 6})
	b := g.Param("fc.b", tensor.Shape{3})
	out := g.Add("fc", nn.Linear{}, x, w, b)
	g.SetOutput(out)

	rng := rand.New(rand.NewSource(4))
	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	xt := tensor.New(4, 6)
	xt.RandNormal(rng, 1)
	gradCheck(t, g, store, graph.Feeds{"x": xt}, 10, 0.02)
}

func TestSoftmaxXentGradient(t *testing.T) {
	// Direct op-level numeric check of d loss / d logits.
	rng := rand.New(rand.NewSource(5))
	logits := tensor.New(4, 5)
	logits.RandNormal(rng, 1)
	labels := tensor.FromSlice([]float32{0, 3, 2, 4}, 4)
	op := nn.SoftmaxCrossEntropy{}

	loss := func() float64 {
		out, _ := op.Forward(nil, []*tensor.Tensor{logits, labels})
		return float64(out.Data()[0])
	}
	_, stash := op.Forward(nil, []*tensor.Tensor{logits, labels})
	seed := tensor.New(1)
	seed.Fill(1)
	grads := backward(op, seed, []*tensor.Tensor{nil, labels}, shapesOf(logits, labels), nil, stash)
	gl := grads[0]
	if grads[1] != nil {
		t.Fatal("labels must not receive a gradient")
	}
	const eps = 1e-2
	for probe := 0; probe < 10; probe++ {
		idx := rng.Intn(logits.Elems())
		orig := logits.Data()[idx]
		logits.Data()[idx] = orig + eps
		up := loss()
		logits.Data()[idx] = orig - eps
		down := loss()
		logits.Data()[idx] = orig
		num := (up - down) / (2 * eps)
		if d := num - float64(gl.Data()[idx]); d > 1e-3 || d < -1e-3 {
			t.Fatalf("logits grad[%d]: analytic %v vs numeric %v", idx, gl.Data()[idx], num)
		}
	}
}

func TestReLUThroughGraphReleasesInput(t *testing.T) {
	// relu -> relu chain: first relu's output is needed (stashed by
	// itself); the intermediate is the second relu's output.
	g := graph.New()
	x := g.Input("x", tensor.Shape{1, 8})
	r1 := g.Add("r1", nn.ReLU{}, x)
	r2 := g.Add("r2", nn.ReLU{}, r1)
	g.SetOutput(r2)
	store := graph.NewParamStore()
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	xt := tensor.FromSlice([]float32{-2, -1, 0, 1, 2, 3, -4, 5}, 1, 8)
	outs, err := ex.Forward(graph.Feeds{"x": xt})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 1, 2, 3, 0, 5}
	for i, w := range want {
		if outs[0].Data()[i] != w {
			t.Fatalf("relu chain output[%d] = %v, want %v", i, outs[0].Data()[i], w)
		}
	}
	if err := ex.Backward(); err != nil {
		t.Fatal(err)
	}
}

func TestAddSharedErrorAliases(t *testing.T) {
	op := &nn.Add{N: 3}
	a := tensor.FromSlice([]float32{1, 2}, 2)
	b := tensor.FromSlice([]float32{3, 4}, 2)
	c := tensor.FromSlice([]float32{5, 6}, 2)
	out, _ := op.Forward(nil, []*tensor.Tensor{a, b, c})
	if out.Data()[0] != 9 || out.Data()[1] != 12 {
		t.Fatalf("add output %v", out.Data())
	}
	g := tensor.FromSlice([]float32{7, 8}, 2)
	grads := backward(op, g, make([]*tensor.Tensor, 3), shapesOf(a, b, c), nil, nil)
	if len(grads) != 3 {
		t.Fatalf("want 3 grads, got %d", len(grads))
	}
	for _, gr := range grads {
		if gr != g {
			t.Fatal("summation error terms must share storage (§4.2)")
		}
	}
}

func TestExtractConcatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(2, 3, 6, 8)
	x.RandNormal(rng, 1)
	// 2x2 patch grid with uneven boundaries.
	bounds := []struct{ h0, h1, w0, w1 int }{
		{0, 2, 0, 5}, {0, 2, 5, 8},
		{2, 6, 0, 5}, {2, 6, 5, 8},
	}
	patches := make([]*tensor.Tensor, 4)
	for i, b := range bounds {
		op := &nn.ExtractPatch{H0: b.h0, H1: b.h1, W0: b.w0, W1: b.w1}
		patches[i], _ = op.Forward(nil, []*tensor.Tensor{x})
	}
	cat := &nn.ConcatPatches{NH: 2, NW: 2}
	out, stash := cat.Forward(nil, patches)
	if d := tensor.MaxAbsDiff(out, x); d != 0 {
		t.Fatalf("extract+concat is not the identity: diff %v", d)
	}
	// Backward of concat must give back exactly the patch gradients.
	grads := backward(cat, x, make([]*tensor.Tensor, 4), shapesOf(patches...), nil, stash)
	for i := range grads {
		if d := tensor.MaxAbsDiff(grads[i], patches[i]); d != 0 {
			t.Fatalf("concat backward patch %d diff %v", i, d)
		}
	}
	// Backward of extract scatters into the right window.
	op := &nn.ExtractPatch{H0: 2, H1: 6, W0: 5, W1: 8}
	p, st := op.Forward(nil, []*tensor.Tensor{x})
	gi := backward(op, p, []*tensor.Tensor{nil}, shapesOf(x), nil, st)[0]
	if gi.At(0, 0, 0, 0) != 0 {
		t.Fatal("extract backward leaked outside window")
	}
	if gi.At(0, 0, 2, 5) != x.At(0, 0, 2, 5) {
		t.Fatal("extract backward missed window")
	}
}

func TestDropoutMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	op := &nn.Dropout{P: 0.5, Training: true, Rng: rng}
	x := tensor.New(1, 1000)
	x.Fill(1)
	out, stash := op.Forward(nil, []*tensor.Tensor{x})
	kept := 0
	for _, v := range out.Data() {
		if v != 0 {
			if v != 2 {
				t.Fatalf("survivor not scaled by 1/(1-p): %v", v)
			}
			kept++
		}
	}
	if kept < 400 || kept > 600 {
		t.Fatalf("kept %d of 1000 at p=0.5", kept)
	}
	g := tensor.New(1, 1000)
	g.Fill(1)
	gi := backward(op, g, []*tensor.Tensor{nil}, shapesOf(x), nil, stash)[0]
	for i, v := range gi.Data() {
		wantZero := out.Data()[i] == 0
		if wantZero && v != 0 || !wantZero && v != 2 {
			t.Fatalf("grad mask mismatch at %d: %v", i, v)
		}
	}
	// Eval mode: identity.
	op.Training = false
	out2, _ := op.Forward(nil, []*tensor.Tensor{x})
	if d := tensor.MaxAbsDiff(out2, x); d != 0 {
		t.Fatalf("eval-mode dropout not identity: %v", d)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	op := nn.Flatten{}
	x := tensor.New(2, 3, 4, 5)
	out, stash := op.Forward(nil, []*tensor.Tensor{x})
	if !out.Shape().Equal(tensor.Shape{2, 60}) {
		t.Fatalf("flatten shape %v", out.Shape())
	}
	g := tensor.New(2, 60)
	gi := backward(op, g, []*tensor.Tensor{nil}, shapesOf(x), nil, stash)[0]
	if !gi.Shape().Equal(x.Shape()) {
		t.Fatalf("flatten backward shape %v", gi.Shape())
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	op := nn.GlobalAvgPool{}
	out, stash := op.Forward(nil, []*tensor.Tensor{x})
	if out.At(0, 0, 0, 0) != 2.5 || out.At(0, 1, 0, 0) != 25 {
		t.Fatalf("gap output %v", out.Data())
	}
	g := tensor.FromSlice([]float32{4, 8}, 1, 2, 1, 1)
	gi := backward(op, g, []*tensor.Tensor{nil}, shapesOf(x), nil, stash)[0]
	if gi.At(0, 0, 1, 1) != 1 || gi.At(0, 1, 0, 0) != 2 {
		t.Fatalf("gap backward %v", gi.Data())
	}
}

// TestEndToEndTinyTraining drives a conv->relu->pool->flatten->linear->
// xent graph through several SGD steps by hand and requires the loss to
// drop — an integration test of the whole substrate.
func TestEndToEndTinyTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.New()
	x := g.Input("x", tensor.Shape{8, 1, 8, 8})
	labels := g.Input("labels", tensor.Shape{8})
	w1 := g.Param("c1.w", tensor.Shape{4, 1, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{4})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1)
	r1 := g.Add("r1", nn.ReLU{}, c1)
	p1 := g.Add("p1", nn.NewMaxPool(2, 2), r1)
	f := g.Add("flat", nn.Flatten{}, p1)
	wf := g.Param("fc.w", tensor.Shape{2, 64})
	bf := g.Param("fc.b", tensor.Shape{2})
	fc := g.Add("fc", nn.Linear{}, f, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, fc, labels)
	g.SetOutput(loss)

	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)

	// Two linearly separable blob classes in pixel space.
	xt := tensor.New(8, 1, 8, 8)
	lt := tensor.New(8)
	for i := 0; i < 8; i++ {
		cls := i % 2
		lt.Data()[i] = float32(cls)
		for j := 0; j < 64; j++ {
			v := rng.NormFloat64()*0.3 + float64(cls)
			xt.Data()[i*64+j] = float32(v)
		}
	}
	feeds := graph.Feeds{"x": xt, "labels": lt}

	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for step := 0; step < 30; step++ {
		store.ZeroGrads()
		outs, err := ex.Forward(feeds)
		if err != nil {
			t.Fatal(err)
		}
		l := float64(outs[0].Data()[0])
		if step == 0 {
			first = l
		}
		last = l
		if err := ex.Backward(); err != nil {
			t.Fatal(err)
		}
		for _, p := range store.All() {
			tensor.AXPY(p.Value, -0.1, p.Grad)
		}
	}
	if last > first*0.5 {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
}
