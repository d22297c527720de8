package graph_test

import (
	"math/rand"
	"strings"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// TestFromMatchesFullGraph checks the compiled-tail contract on every
// bundled architecture: for each op node a tail can be entered at,
// compiling g.From(node) and feeding it the node's value, as computed
// by the interpreted executor over the full eval-mode graph, yields
// logits bit-identical to that executor's own.
func TestFromMatchesFullGraph(t *testing.T) {
	for _, arch := range []string{"alexnet", "vgg16", "vgg19", "resnet18", "resnet50"} {
		t.Run(arch, func(t *testing.T) {
			h := 32
			if arch == "alexnet" {
				h = 64
			}
			m, err := models.Build(arch, models.Config{
				Classes: 10, InputC: 3, InputH: h, InputW: h, WidthDiv: 16, BatchSize: 1, Eval: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			g := m.Graph
			store := graph.NewParamStore()
			rng := rand.New(rand.NewSource(5))
			store.InitFromGraph(g, rng, nn.KaimingInit)
			x := tensor.New(m.Input.Shape...)
			x.RandNormal(rng, 1)
			feeds := graph.Feeds{m.Input.Name: x, m.Labels.Name: tensor.New(m.Labels.Shape...)}

			// Reference: one interpreted pass that keeps every op value.
			ops := g.OpNodes()
			g.SetOutput(append([]*graph.Node{m.Logits}, ops...)...)
			ex, err := graph.NewExecutor(g, store)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := ex.Forward(feeds)
			if err != nil {
				t.Fatal(err)
			}
			want := outs[0].Clone()
			vals := make(map[string]*tensor.Tensor, len(ops))
			for i, n := range ops {
				vals[n.Name] = outs[i+1].Clone()
			}
			g.SetOutput(m.Logits)

			cuts := 0
			for _, n := range ops {
				tail, err := g.From(n.Name)
				if err != nil {
					continue // loss, or a node a skip connection bypasses
				}
				cuts++
				prog, err := graph.Compile(tail, store, graph.CompileOptions{})
				if err != nil {
					t.Fatalf("compile tail at %s: %v", n.Name, err)
				}
				got, err := prog.Forward(graph.Feeds{n.Name: vals[n.Name]})
				if err != nil {
					t.Fatalf("tail at %s: %v", n.Name, err)
				}
				assertBitIdentical(t, "tail at "+n.Name, []*tensor.Tensor{want}, got)
			}
			if cuts == 0 {
				t.Fatal("no op node admits a tail")
			}
			t.Logf("%d of %d op nodes admit a tail", cuts, len(ops))
		})
	}
}

// TestFromDropsAncestorsAndSharesOps checks what From keeps: the cut
// becomes an input of the same shape, its ancestors vanish, and the
// remaining nodes reuse the source graph's Op values.
func TestFromDropsAncestorsAndSharesOps(t *testing.T) {
	g, _ := buildCompileNet(2, false)
	g.SetOutput(g.FindNode("logits"))
	tail, err := g.From("pool1")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range tail.Nodes {
		names = append(names, n.Name)
		if src := g.FindNode(n.Name); n.Kind == graph.KindOp && src.Op != n.Op {
			t.Errorf("%s: tail op is not the source graph's op", n.Name)
		}
	}
	in := tail.FindNode("pool1")
	if in == nil || in.Kind != graph.KindInput || !in.Shape.Equal(g.FindNode("pool1").Shape) {
		t.Fatalf("cut node in tail = %v, want an input of shape %v", in, g.FindNode("pool1").Shape)
	}
	for _, gone := range []string{"image", "labels", "c1", "c1.w", "c1.bn", "loss"} {
		if tail.FindNode(gone) != nil {
			t.Errorf("tail keeps %q; nodes: %v", gone, names)
		}
	}
	if len(tail.Outputs) != 1 || tail.Outputs[0].Name != "logits" {
		t.Fatalf("tail outputs %v, want [logits]", tail.Outputs)
	}
	if _, err := tail.Topo(); err != nil {
		t.Fatal(err)
	}
}

// TestFromErrors covers the three refusals.
func TestFromErrors(t *testing.T) {
	g, _ := buildCompileNet(2, false)
	for _, tc := range []struct{ name, cut, want string }{
		{"input node", "image", "not an op node"},
		{"param node", "c1.w", "not an op node"},
		{"missing node", "nope", "not an op node"},
		// Outputs are loss and logits: the loss still reads labels.
		{"other input still read", "pool1", `still read input "labels"`},
	} {
		if _, err := g.From(tc.cut); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: From(%q) = %v, want error containing %q", tc.name, tc.cut, err, tc.want)
		}
	}
	g.SetOutput(g.FindNode("logits"))
	if _, err := g.From("loss"); err == nil || !strings.Contains(err.Error(), "feeds no output") {
		t.Errorf("From(loss) with logits output = %v, want a feeds-no-output error", err)
	}
}
