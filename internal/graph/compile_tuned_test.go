package graph_test

import (
	"testing"

	"splitcnn/internal/autotune"
	"splitcnn/internal/graph"
	"splitcnn/internal/tensor"
)

// forceNonDefaultPlans installs a tuned plan for every conv site of g,
// preferring the backend the default heuristic would NOT pick, so the
// test exercises the dispatch switch for real. It returns the number of
// sites whose algorithm differs from default.
func forceNonDefaultPlans(g *graph.Graph) int {
	changed := 0
	for _, s := range autotune.Sites(g) {
		algo := autotune.DefaultAlgo(s.Params)
		for cand := autotune.Algo(0); cand < autotune.NumAlgos; cand++ {
			if cand != algo && autotune.Applicable(cand, s.Params) {
				algo = cand
				break
			}
		}
		if algo != autotune.DefaultAlgo(s.Params) {
			changed++
		}
		autotune.Default.SetPlan(s.Key(), autotune.Decision{Algo: algo})
	}
	return changed
}

// TestCompiledForwardZeroAllocTuned is the acceptance-criteria twin of
// TestCompiledForwardZeroAlloc: with autotuned plans installed —
// im2col where the default would run Winograd, so the lowering buffers
// cycle through the scratch arena — the warmed compiled forward still
// performs zero heap allocations.
func TestCompiledForwardZeroAllocTuned(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	defer autotune.Default.Reset()

	g, store := buildCompileNet(2, false) // eval mode
	if forceNonDefaultPlans(g) == 0 {
		t.Fatal("no conv site could take a non-default backend; test is vacuous")
	}
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feeds := compileFeeds(t, g, 13)
	for i := 0; i < 5; i++ {
		if _, err := prog.Forward(feeds); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := prog.Forward(feeds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed tuned compiled forward allocates %.1f objects per run, want 0", allocs)
	}
}

// TestCompiledMatchesInterpretedTuned: the compiled and interpreted
// paths consult the same dispatcher, so they stay bit-identical to
// each other under any installed plan.
func TestCompiledMatchesInterpretedTuned(t *testing.T) {
	defer autotune.Default.Reset()
	g, store := buildCompileNet(3, false)
	forceNonDefaultPlans(g)

	exec, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	feeds := compileFeeds(t, g, 29)
	want, err := exec.Forward(feeds)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Forward(feeds)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "tuned", got, want)
}
