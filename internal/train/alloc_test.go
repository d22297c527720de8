package train_test

import (
	"math"
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
	"splitcnn/internal/train"
)

// buildAllocNet hand-builds a small BN-free CNN on the tiny dataset's
// 3x32x32 geometry, touching every arena-capable op: Winograd and
// im2col convolutions, ReLU, residual Add, MaxPool, Dropout,
// GlobalAvgPool, Flatten, Linear, and the softmax loss.
// dropRng feeds the dropout op; pass nil to make it the identity (the
// concurrent test must, because replicas share the op and a rand.Rand
// is not goroutine-safe).
func buildAllocNet(batch int, rng, dropRng *rand.Rand) (*graph.Graph, *graph.ParamStore) {
	g := graph.New()
	x := g.Input("image", tensor.Shape{batch, 3, 32, 32})
	labels := g.Input("labels", tensor.Shape{batch})
	w1 := g.Param("c1.w", tensor.Shape{8, 3, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{8})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1) // Winograd path
	r1 := g.Add("r1", nn.ReLU{}, c1)
	w2 := g.Param("c2.w", tensor.Shape{8, 8, 1, 1})
	b2 := g.Param("c2.b", tensor.Shape{8})
	c2 := g.Add("c2", nn.NewConv(1, 1, 0), r1, w2, b2) // im2col path
	sum := g.Add("res", &nn.Add{N: 2}, r1, c2)
	mp := g.Add("mp", nn.NewMaxPool(2, 2), sum)
	do := g.Add("do", &nn.Dropout{P: 0.1, Training: true, Rng: dropRng}, mp)
	gap := g.Add("gap", nn.GlobalAvgPool{}, do)
	fl := g.Add("fl", nn.Flatten{}, gap)
	wf := g.Param("fc.w", tensor.Shape{10, 8})
	bf := g.Param("fc.b", tensor.Shape{10})
	fc := g.Add("fc", nn.Linear{}, fl, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, fc, labels)
	g.SetOutput(loss)

	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	return g, store
}

// TestTrainStepZeroAlloc is the regression guard for the workspace
// arena: a warmed-up training step — batch assembly, zero-grads,
// forward, backward, optimizer — must not allocate. Parallelism is
// pinned to 1 because the parallel dispatch path allocates its small
// task closure; the serial engine is the zero-alloc contract.
func TestTrainStepZeroAlloc(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)

	const batch = 8
	ds := tinyDataset(t)
	rng := rand.New(rand.NewSource(11))
	g, store := buildAllocNet(batch, rng, rng)
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	ex.UseArena(tensor.NewArena())
	opt := &train.SGD{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4}

	batchX := tensor.New(batch, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W)
	batchY := tensor.New(batch)
	feeds := graph.Feeds{"image": batchX, "labels": batchY}
	idx := make([]int, batch)
	var lastLoss float64
	s := 0
	step := func() {
		for i := range idx {
			idx[i] = (s*batch + i) % ds.Cfg.TrainN
		}
		s++
		ds.BatchInto(batchX, batchY, true, idx)
		store.ZeroGrads()
		outs, err := ex.Forward(feeds)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = float64(outs[0].Data()[0])
		if err := ex.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step(store)
	}

	for i := 0; i < 5; i++ {
		step() // warm the arena, free lists, and shape caches
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("warmed training step allocates %v objects/run, want 0", allocs)
	}
	if math.IsNaN(lastLoss) || lastLoss <= 0 {
		t.Fatalf("suspicious loss %v after alloc-counted steps", lastLoss)
	}
}

// TestArenaTrainingMatchesPlain pins the arena executor's numerics to
// a nil-arena executor running the same kernels from the heap:
// identical graphs, parameters, and batches must produce bit-identical
// losses and parameter values, so recycled (uncleared) arena buffers
// never leak into results.
func TestArenaTrainingMatchesPlain(t *testing.T) {
	const batch, steps = 4, 3
	ds := tinyDataset(t)
	run := func(useArena bool) (losses []float64, store *graph.ParamStore) {
		// Dropout must draw the same random stream in both runs.
		rng := rand.New(rand.NewSource(23))
		g, st := buildAllocNet(batch, rng, rng)
		ex, err := graph.NewExecutor(g, st)
		if err != nil {
			t.Fatal(err)
		}
		if useArena {
			ex.UseArena(tensor.NewArena())
		}
		opt := &train.SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
		x := tensor.New(batch, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W)
		y := tensor.New(batch)
		idx := make([]int, batch)
		for s := 0; s < steps; s++ {
			for i := range idx {
				idx[i] = s*batch + i
			}
			ds.BatchInto(x, y, true, idx)
			st.ZeroGrads()
			outs, err := ex.Forward(graph.Feeds{"image": x, "labels": y})
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, float64(outs[0].Data()[0]))
			if err := ex.Backward(); err != nil {
				t.Fatal(err)
			}
			opt.Step(st)
		}
		return losses, st
	}
	plainLoss, plainStore := run(false)
	arenaLoss, arenaStore := run(true)
	for s := range plainLoss {
		if plainLoss[s] != arenaLoss[s] {
			t.Fatalf("step %d: plain loss %v != arena loss %v", s, plainLoss[s], arenaLoss[s])
		}
	}
	for _, p := range plainStore.All() {
		q := arenaStore.Lookup(p.Name)
		if d := tensor.MaxAbsDiff(p.Value, q.Value); d != 0 {
			t.Fatalf("param %s diverged by %v between plain and arena training", p.Name, d)
		}
	}
}

// TestDataParallelArenaConcurrency drives the persistent worker pool
// and per-worker arenas from four concurrent replicas for several
// steps. Its real assertions run under `go test -race` (the Makefile's
// race target), where any sharing bug between the pool's stealing
// waiters or across arenas is a detector error.
func TestDataParallelArenaConcurrency(t *testing.T) {
	prev := tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)

	const local, workers = 4, 4
	ds := tinyDataset(t)
	rng := rand.New(rand.NewSource(31))
	g, store := buildAllocNet(local, rng, nil)
	dp, err := train.NewDataParallel(g, store, workers)
	if err != nil {
		t.Fatal(err)
	}
	opt := &train.SGD{LR: 0.01, Momentum: 0.9}
	indices := make([]int, local*workers)
	for s := 0; s < 4; s++ {
		for i := range indices {
			indices[i] = (s*len(indices) + i) % ds.Cfg.TrainN
		}
		loss, err := dp.Step(ds, indices)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) || loss <= 0 {
			t.Fatalf("step %d: loss %v", s, loss)
		}
		opt.Step(store)
	}
}
