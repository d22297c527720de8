package distserve

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"splitcnn/internal/dist"
	"splitcnn/internal/graph"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
)

// runGang evaluates every shard of an owners table concurrently, with
// halo rows flowing through per-shard dist.Exchanges exactly as the RPC
// workers do (publish to your own, wait on the owner's), and stitches
// the shard bands into the full final-stage feature map.
func runGang(t *testing.T, se *ShardEval, image *tensor.Tensor, owners [][]Range) *tensor.Tensor {
	t.Helper()
	p := se.Plan()
	n := len(owners[0])
	exch := make([]*dist.Exchange, n)
	for s := range exch {
		exch[s] = dist.NewExchange()
		exch[s].Open(fmt.Sprintf("s%d", s), time.Now().Add(time.Minute))
	}
	last := p.Last()
	full := tensor.New(1, last.OutC, last.OutH, last.OutW)
	var wg sync.WaitGroup
	errs := make([]error, n)
	var mu sync.Mutex
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			imgR := p.ImageRange(owners, s)
			var band *tensor.Tensor
			if !imgR.Empty() {
				band = SliceRows(image, 0, imgR)
			}
			fetch := func(stage, owner int, rows Range) (*tensor.Tensor, error) {
				v, err := exch[owner].Wait(fmt.Sprintf("s%d", owner), stage, 10*time.Second)
				if err != nil {
					return nil, err
				}
				hr := v.(*haloRows)
				return SliceRows(hr.t, hr.rows.Lo, rows), nil
			}
			publish := func(stage int, rows Range, y *tensor.Tensor) {
				exch[s].Publish(fmt.Sprintf("s%d", s), stage, &haloRows{rows: rows, t: y})
			}
			out, outR, err := se.RunShard(band, s, owners, fetch, publish, nil)
			if err != nil {
				errs[s] = err
				// Fail the whole gang fast so waiters don't hang.
				for _, e := range exch {
					e.Expire(time.Now().Add(time.Hour))
				}
				return
			}
			if out != nil {
				mu.Lock()
				copyRows(full, outR.Lo, out, 0, outR.Len())
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	return full
}

// referenceTail runs the unsplit graph and returns (tail feature map,
// logits) — the ground truth both the gang and the router must match.
func referenceTail(t *testing.T, spec serve.Spec, image *tensor.Tensor) (*Plan, *ShardEval, *tensor.Tensor, []float32) {
	t.Helper()
	m, store, err := serve.Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardEval(p, store)
	if err != nil {
		t.Fatal(err)
	}
	tail := m.Graph.FindNode(p.Tail)
	if tail == nil {
		t.Fatalf("tail node %q not found", p.Tail)
	}
	m.Graph.SetOutput(m.Logits, tail)
	ex, err := graph.NewExecutor(m.Graph, store)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Input.Shape
	x := tensor.New(1, s.C(), s.H(), s.W())
	copy(x.Data(), image.Data())
	outs, err := ex.Forward(graph.Feeds{"image": x, "labels": tensor.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	logits := append([]float32(nil), outs[0].Data()...)
	fm := outs[1].Clone()
	m.Graph.SetOutput(m.Logits) // restore the serving contract
	return p, se, fm, logits
}

func randImage(rng *rand.Rand, c, h, w int) *tensor.Tensor {
	t := tensor.New(1, c, h, w)
	d := t.Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	return t
}

func maxAbsDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHaloGangMatchesUnsplit is the halo-correctness contract: for the
// plan's own (even-aligned) partitions the gang's stitched feature map
// is bit-identical to the unsplit executor's; single-shard gangs are the
// degenerate case.
func TestHaloGangMatchesUnsplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, arch := range []string{"vgg16", "resnet18"} {
		t.Run(arch, func(t *testing.T) {
			spec := testSpec(arch)
			image := randImage(rng, 3, spec.Model.InputH, spec.Model.InputW)
			p, se, want, _ := referenceTail(t, spec, image)
			for n := 1; n <= 5; n++ {
				got := runGang(t, se, image, p.Owners(n))
				if !bitIdentical(got.Data(), want.Data()) {
					t.Fatalf("n=%d: gang diverges from unsplit run (max |Δ| %g)",
						n, maxAbsDiff(got.Data(), want.Data()))
				}
			}
		})
	}
}

// TestHaloGangRandomGeometries stresses the halo math with arbitrary
// (odd, uneven, empty-band) partitions. Odd cuts misalign the Winograd
// tile grid, so equality is within a 1e-4 tolerance — the windows
// still read real neighbor rows, only summation geometry shifts.
func TestHaloGangRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := testSpec("vgg16")
	image := randImage(rng, 3, spec.Model.InputH, spec.Model.InputW)
	p, se, want, _ := referenceTail(t, spec, image)
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(4)
		owners := make([][]Range, len(p.Stages))
		for i, st := range p.Stages {
			cuts := make([]int, n+1)
			cuts[n] = st.OutH
			for j := 1; j < n; j++ {
				cuts[j] = rng.Intn(st.OutH + 1)
			}
			// Interior cuts must be sorted, not even.
			for j := 1; j < n; j++ {
				if cuts[j] < cuts[j-1] {
					cuts[j] = cuts[j-1]
				}
			}
			owners[i] = make([]Range, n)
			for s := 0; s < n; s++ {
				owners[i][s] = Range{cuts[s], cuts[s+1]}
			}
		}
		got := runGang(t, se, image, owners)
		if d := maxAbsDiff(got.Data(), want.Data()); d > 1e-4 {
			t.Fatalf("trial %d (n=%d): max |Δ| %g > 1e-4", trial, n, d)
		}
	}
}

// TestEvalStageRejectsBadBand: the band contract is enforced, not
// assumed.
func TestEvalStageRejectsBadBand(t *testing.T) {
	spec := testSpec("vgg16")
	m, store, err := serve.Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardEval(p, store)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stages[0]
	short := tensor.New(1, st.InC, 3, st.InW) // too few rows for the full output
	if _, err := se.EvalStage(0, short, Range{0, st.OutH}); err == nil {
		t.Fatal("EvalStage accepted an undersized input band")
	}
	if y, err := se.EvalStage(0, nil, Range{}); err != nil || y != nil {
		t.Fatalf("empty band: got (%v, %v), want (nil, nil)", y, err)
	}
}
