package graph_test

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// buildDualOutputNet builds the eval/validation topology that stresses
// the release/recycle paths: the logits node is both a graph output
// (the caller reads it after Backward) and an input the loss keeps for
// backward. Its tensor therefore crosses the retire path, not the
// immediate arena.Put path, and must be reclaimed exactly once.
func buildDualOutputNet(batch int) (*graph.Graph, *graph.ParamStore, *graph.Node, *graph.Node) {
	g := graph.New()
	x := g.Input("image", tensor.Shape{batch, 3, 8, 8})
	labels := g.Input("labels", tensor.Shape{batch})
	w1 := g.Param("c1.w", tensor.Shape{4, 3, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{4})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1)
	r1 := g.Add("r1", nn.ReLU{}, c1)
	gap := g.Add("gap", nn.GlobalAvgPool{}, r1)
	fl := g.Add("fl", nn.Flatten{}, gap)
	wf := g.Param("fc.w", tensor.Shape{5, 4})
	bf := g.Param("fc.b", tensor.Shape{5})
	logits := g.Add("logits", nn.Linear{}, fl, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, logits, labels)
	g.SetOutput(loss)
	// Expose logits as a second output, exactly like train.Evaluate does.
	g.Outputs = append(g.Outputs, logits)

	store := graph.NewParamStore()
	store.InitFromGraph(g, rand.New(rand.NewSource(3)), nn.KaimingInit)
	return g, store, loss, logits
}

// TestOutputRetireNoDoubleRecycle is the regression guard for the
// double-recycle hazard around Executor.release/recycle: an output node
// that is also consumed by a kept-for-backward node (logits feeding the
// loss) is released once during Backward (deferred to the retired list)
// and must not be reclaimed a second time by the next Forward's value
// sweep or an explicit Recycle. A double reclaim would poison the
// arena: the buffer gets re-vended while a stale reference still
// returns it, and two live tensors end up sharing storage, which shows
// up as bit-instability across identical steps.
func TestOutputRetireNoDoubleRecycle(t *testing.T) {
	const batch = 3
	g, store, _, _ := buildDualOutputNet(batch)
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	arena := tensor.NewArena()
	ex.UseArena(arena)

	x := tensor.New(batch, 3, 8, 8)
	y := tensor.New(batch)
	rng := rand.New(rand.NewSource(9))
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = rng.Float32()
	}
	for i := 0; i < batch; i++ {
		y.Data()[i] = float32(i % 5)
	}
	feeds := graph.Feeds{"image": x, "labels": y}

	var refLoss float32
	var refLogits []float32
	step := func(cycle int) {
		outs, err := ex.Forward(feeds)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		lossT, logitsT := outs[0], outs[1]
		if &lossT.Data()[0] == &logitsT.Data()[0] {
			t.Fatalf("cycle %d: loss and logits outputs share storage", cycle)
		}
		if err := ex.Backward(); err != nil {
			t.Fatalf("cycle %d: backward: %v", cycle, err)
		}
		// Outputs must remain readable and correct after Backward: they
		// were retired, not recycled.
		if cycle == 0 {
			refLoss = lossT.Data()[0]
			refLogits = append(refLogits, logitsT.Data()...)
			return
		}
		if got := lossT.Data()[0]; got != refLoss {
			t.Fatalf("cycle %d: loss %v, want bit-identical %v", cycle, got, refLoss)
		}
		for i, v := range logitsT.Data() {
			if v != refLogits[i] {
				t.Fatalf("cycle %d: logits[%d] = %v, want %v", cycle, i, v, refLogits[i])
			}
		}
		store.ZeroGrads()
	}

	for c := 0; c < 4; c++ {
		step(c)
	}
	warm := arena.Stats()
	// Explicit double Recycle between steps must be harmless: the
	// second call sees an empty retired list and nil values, and the
	// arena's ownership guard makes any stray duplicate Put a no-op.
	ex.Recycle()
	ex.Recycle()
	for c := 4; c < 8; c++ {
		step(c)
	}
	after := arena.Stats()
	if after.PooledBytes != warm.PooledBytes {
		t.Fatalf("arena footprint grew after warm-up: %d -> %d bytes (a recycle path is leaking or double-reclaiming)",
			warm.PooledBytes, after.PooledBytes)
	}
	if after.InUseBytes < 0 {
		t.Fatalf("negative in-use bytes %d: a buffer was returned twice", after.InUseBytes)
	}
}

// TestForwardOnlyOutputRecycleStability covers the eval-mode shape of
// the same hazard: repeated Forward calls with no Backward, where both
// outputs stay in the value table and are reclaimed by the next
// Forward's sweep.
func TestForwardOnlyOutputRecycleStability(t *testing.T) {
	const batch = 2
	g, store, _, _ := buildDualOutputNet(batch)
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	arena := tensor.NewArena()
	ex.UseArena(arena)

	x := tensor.New(batch, 3, 8, 8)
	y := tensor.New(batch)
	x.Fill(0.25)
	feeds := graph.Feeds{"image": x, "labels": y}

	var ref []float32
	for c := 0; c < 6; c++ {
		outs, err := ex.Forward(feeds)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c == 0 {
			ref = append(ref, outs[1].Data()...)
			continue
		}
		for i, v := range outs[1].Data() {
			if v != ref[i] {
				t.Fatalf("cycle %d: logits[%d] = %v, want %v", c, i, v, ref[i])
			}
		}
	}
}

// TestBackwardDropsHeapGradients checks that the executor keeps no
// reference to a gradient once Backward has consumed it. Batch norm's
// kernels allocate from the heap, so a gradient the executor still
// held (in its reused per-op gradient slice) would stay live until the
// next step and raise training's peak memory by one set of them.
func TestBackwardDropsHeapGradients(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{2, 3, 4, 4})
	w := g.Param("c.w", tensor.Shape{3, 3, 3, 3})
	c := g.Add("c", nn.NewConv(3, 1, 1), x, w, g.Param("c.b", tensor.Shape{3}))
	bn := g.Add("bn", nn.NewBatchNorm(nn.NewBNState("bn", 3)), c,
		g.Param("bn.gamma", tensor.Shape{3}), g.Param("bn.beta", tensor.Shape{3}))
	g.SetOutput(g.Add("gap", nn.GlobalAvgPool{}, bn))
	store := graph.NewParamStore()
	rng := rand.New(rand.NewSource(3))
	store.InitFromGraph(g, rng, nn.KaimingInit)
	xt := tensor.New(2, 3, 4, 4)
	xt.RandNormal(rng, 1)

	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Bool
	ex.Hook = func(ev graph.OpEvent) {
		if ev.Backward && ev.Name == "bn" {
			runtime.SetFinalizer(ev.Output, func(*tensor.Tensor) { collected.Store(true) })
		}
	}
	if _, err := ex.Forward(graph.Feeds{"x": xt}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Backward(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("batch norm's input gradient is still reachable after Backward")
	}
	runtime.KeepAlive(ex)
}
