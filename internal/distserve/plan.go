// Package distserve is the distributed split-inference subsystem: it
// runs the spatially-shardable prefix of a model — the chain of
// window-based and pointwise ops hanging off the image input — across
// multiple worker processes, each owning a contiguous band of output
// rows per stage and exchanging halo (boundary) rows with the neighbors
// that own adjacent bands, then gathers the final prefix feature map on
// a router that finishes the graph tail locally. The single-process
// server it must match bit for bit runs serve.Load's compiled program,
// and so does the router's tail (graph.Compile over Graph.From at the
// last shard stage); only the shard stages still run interpreted ops.
//
// Unlike the paper's §3.1 transformation (internal/core), which pads
// each patch with zeros and therefore perturbs boundary values, the
// halo exchange is exact: every shard convolves over the very rows the
// unsplit operator would read, so the distributed result is the
// single-process result. Bit-identity additionally requires the shard
// algorithm dispatch to match the unsplit run; the one backend whose
// reduction geometry is position-dependent within a plan is Winograd
// F(2x2,3x3), whose 2x2 output tile grid must stay aligned across
// shards — hence Partition rounds every interior cut down to an even
// row. Workers run untuned, which is the same im2col/Winograd heuristic
// the default server uses.
package distserve

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/tensor"
)

// Range is a half-open interval [Lo, Hi) of rows.
type Range struct{ Lo, Hi int }

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Empty reports whether the range holds no rows.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

func intersect(a, b Range) Range {
	lo, hi := max(a.Lo, b.Lo), min(a.Hi, b.Hi)
	if hi < lo {
		hi = lo
	}
	return Range{lo, hi}
}

// windowOp and patchwiseOp mirror the structural interfaces the §3.1
// transform keys on (internal/core): window geometry for halo math,
// patch-safety for pointwise stages.
type windowOp interface {
	Window() tensor.ConvParams
	WithPad(tensor.Pad2D) graph.Op
}

type patchwiseOp interface{ PatchwiseSafe() bool }

// Stage is one shardable op of the prefix chain: a window op (conv,
// max/avg pool) or a pointwise op (ReLU, BN, dropout) applied to NCHW
// feature maps. Row ownership is expressed in *output* rows; InputRange
// maps them back to the input rows (of the previous stage's output)
// the op's windows read.
type Stage struct {
	Name string
	Kind string
	node *graph.Node

	win      tensor.ConvParams
	windowed bool

	InC, InH, InW    int
	OutC, OutH, OutW int
}

// InputRange returns the *virtual* input interval stage windows read to
// produce output rows out: [Lo·S − padTop, (Hi−1)·S − padTop + K). It
// may extend past [0, InH); the overhang is exactly the asymmetric
// zero-padding a shard must apply locally (clip + WithPad re-derive the
// padded geometry, mirroring core.Split's §3.1 per-patch padding — but
// against real neighbor rows instead of zeros).
func (s *Stage) InputRange(out Range) Range {
	if out.Empty() {
		return Range{}
	}
	if !s.windowed {
		return out
	}
	return Range{
		Lo: out.Lo*s.win.SH - s.win.Pad.Top,
		Hi: (out.Hi-1)*s.win.SH - s.win.Pad.Top + s.win.KH,
	}
}

// ClipInput clips a virtual input interval to the real rows [0, InH).
func (s *Stage) ClipInput(r Range) Range {
	return intersect(r, Range{0, s.InH})
}

// Plan is the sharding geometry of one model: the extracted prefix
// chain plus the image input description and the classifier width.
type Plan struct {
	Stages []*Stage
	// Tail names the graph node at which the router enters the
	// non-shardable remainder (Graph.From) with the gathered feature
	// map (== last stage's name).
	Tail string
	// InC/InH/InW is the image geometry; Classes the logits width.
	InC, InH, InW int
	Classes       int

	mu     sync.Mutex
	owners map[int][][]Range // cached Owners tables per shard count
}

// NewPlan extracts the shardable prefix from a materialized model: walk
// from the image input along the unique-consumer chain accepting window
// ops and patchwise-safe pointwise ops whose only other inputs are
// parameters. Residual adds (two op inputs), flatten (non-NCHW output)
// and global pooling end the chain. VGG/AlexNet shard their entire
// convolutional trunk; ResNets shard the stem before the first residual
// join — shallower, but still the rows-dominant layers.
func NewPlan(m *models.Model) (*Plan, error) {
	in := m.Input
	if len(in.Shape) != 4 {
		return nil, fmt.Errorf("distserve: input %q is not NCHW (%v)", in.Name, in.Shape)
	}
	if in.Shape.N() != 1 {
		return nil, fmt.Errorf("distserve: plan wants a batch-1 graph, input is %v", in.Shape)
	}
	p := &Plan{
		InC: in.Shape.C(), InH: in.Shape.H(), InW: in.Shape.W(),
		Classes: m.Classes,
		owners:  make(map[int][][]Range),
	}
	cons := m.Graph.Consumers()
	cur := in
	for {
		cs := cons[cur.ID]
		if len(cs) != 1 {
			break // chain forks (residual reuse) or dead-ends
		}
		n := cs[0]
		if len(n.Inputs) == 0 || n.Inputs[0] != cur || len(n.Shape) != 4 {
			break
		}
		paramsOnly := true
		for _, src := range n.Inputs[1:] {
			if src.Kind != graph.KindParam {
				paramsOnly = false
				break
			}
		}
		if !paramsOnly {
			break // e.g. residual Add joining two op values
		}
		st := &Stage{
			Name: n.Name, Kind: n.Op.Kind(), node: n,
			InC: cur.Shape.C(), InH: cur.Shape.H(), InW: cur.Shape.W(),
			OutC: n.Shape.C(), OutH: n.Shape.H(), OutW: n.Shape.W(),
		}
		if w, ok := n.Op.(windowOp); ok {
			st.win, st.windowed = w.Window(), true
		} else if pw, ok := n.Op.(patchwiseOp); !ok || !pw.PatchwiseSafe() {
			break // not shardable (flatten, gap, linear, ...)
		} else if st.InH != st.OutH || st.InW != st.OutW {
			break // pointwise ops must preserve spatial geometry
		}
		p.Stages = append(p.Stages, st)
		cur = n
	}
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("distserve: model %q has no shardable prefix (input consumer is not a window/pointwise chain)", m.Name)
	}
	p.Tail = p.Stages[len(p.Stages)-1].Name
	return p, nil
}

// Last returns the final stage (the gather point).
func (p *Plan) Last() *Stage { return p.Stages[len(p.Stages)-1] }

// Partition cuts h rows into n contiguous ranges of near-equal size
// whose interior cut points are rounded down to even rows. The even
// alignment pins the Winograd F(2x2,3x3) output tile grid of every
// shard to the unsplit operator's grid, which is what upgrades the halo
// exchange from "equal within fp tolerance" to "bit-identical": each
// 2x2 output tile is computed from the same 4x4 input window with the
// same reduction order regardless of which shard computes it. Ranges
// may be empty when h < 2n (deep pyramid stages); empty shards simply
// fetch everything they need from the owners.
func Partition(h, n int) []Range {
	if n < 1 {
		n = 1
	}
	cut := func(i int) int {
		if i <= 0 {
			return 0
		}
		if i >= n {
			return h
		}
		return (h * i / n) &^ 1
	}
	out := make([]Range, n)
	for i := range out {
		out[i] = Range{cut(i), cut(i + 1)}
	}
	return out
}

// Owners returns the per-stage row-ownership table for n shards:
// owners[i][s] is the band of stage i's *output* rows shard s computes.
// Each stage's output height is partitioned independently, so ownership
// tracks the shrinking spatial pyramid. Tables are cached per n.
func (p *Plan) Owners(n int) [][]Range {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.owners[n]; ok {
		return t
	}
	t := make([][]Range, len(p.Stages))
	for i, st := range p.Stages {
		t[i] = Partition(st.OutH, n)
	}
	p.owners[n] = t
	return t
}

// ImageRange returns the band of raw image rows shard s needs to start
// stage 0 — the router scatters exactly these rows to each worker, so
// stage 0 needs no halo exchange at all.
func (p *Plan) ImageRange(owners [][]Range, s int) Range {
	st := p.Stages[0]
	return st.ClipInput(st.InputRange(owners[0][s]))
}

// Signature summarizes everything two processes must agree on before
// exchanging rows: image geometry, the stage chain with window
// parameters, the classifier width, and the weight-snapshot
// fingerprint. Workers refuse gangs whose signature differs.
func (p *Plan) Signature(snapshotFP string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "in=%dx%dx%d classes=%d", p.InC, p.InH, p.InW, p.Classes)
	for _, st := range p.Stages {
		fmt.Fprintf(&b, "|%s(%s)%d>%d", st.Name, st.Kind, st.InH, st.OutH)
		if st.windowed {
			fmt.Fprintf(&b, " k%d,%ds%d,%dp%s", st.win.KH, st.win.KW, st.win.SH, st.win.SW, st.win.Pad)
		}
	}
	fmt.Fprintf(&b, "|snap=%s", snapshotFP)
	return b.String()
}

// ShardEval evaluates plan stages for one shard. It resolves each
// stage's parameter tensors once at construction and is safe for
// concurrent use (stage ops are stateless in eval mode; see the BN
// running-stats read path).
type ShardEval struct {
	p      *Plan
	params [][]*tensor.Tensor
}

// NewShardEval binds a plan to the parameter store it was materialized
// with.
func NewShardEval(p *Plan, store *graph.ParamStore) (*ShardEval, error) {
	se := &ShardEval{p: p, params: make([][]*tensor.Tensor, len(p.Stages))}
	for i, st := range p.Stages {
		for _, src := range st.node.Inputs[1:] {
			pe := store.Lookup(src.Name)
			if pe == nil {
				return nil, fmt.Errorf("distserve: stage %s: parameter %q not in store", st.Name, src.Name)
			}
			se.params[i] = append(se.params[i], pe.Value)
		}
	}
	return se, nil
}

// Plan returns the evaluation's sharding geometry.
func (se *ShardEval) Plan() *Plan { return se.p }

// EvalStage computes output rows out of stage i from x, which must hold
// exactly the clipped input rows ClipInput(InputRange(out)). Overhang
// beyond the real input becomes local asymmetric zero-padding via the
// op's WithPad — identical values to the unsplit op's own padding.
// Empty out returns (nil, nil).
func (se *ShardEval) EvalStage(i int, x *tensor.Tensor, out Range) (*tensor.Tensor, error) {
	st := se.p.Stages[i]
	if out.Empty() {
		return nil, nil
	}
	virt := st.InputRange(out)
	clip := st.ClipInput(virt)
	if clip.Empty() {
		return nil, fmt.Errorf("distserve: stage %s: output rows %v read no real input rows", st.Name, out)
	}
	if x == nil || x.Shape().H() != clip.Len() || x.Shape().C() != st.InC || x.Shape().W() != st.InW {
		return nil, fmt.Errorf("distserve: stage %s: input covers %d rows, want %d (%v)", st.Name, heightOf(x), clip.Len(), clip)
	}
	op := st.node.Op
	if st.windowed {
		pad := st.win.Pad
		pad.Top = clip.Lo - virt.Lo
		pad.Bottom = virt.Hi - clip.Hi
		op = st.node.Op.(windowOp).WithPad(pad)
	}
	in := make([]*tensor.Tensor, 0, 1+len(se.params[i]))
	in = append(in, x)
	in = append(in, se.params[i]...)
	y, _ := op.Forward(nil, in)
	if y.Shape().H() != out.Len() {
		return nil, fmt.Errorf("distserve: stage %s: produced %d rows for %v", st.Name, y.Shape().H(), out)
	}
	return y, nil
}

func heightOf(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return t.Shape().H()
}

// HaloFetch returns rows (a sub-range of stage's output) owned by
// another shard. The worker implements it as a Shard.Halo RPC; the halo
// tests implement it over a local dist.Exchange.
type HaloFetch func(stage, owner int, rows Range) (*tensor.Tensor, error)

// HaloPublish announces this shard's freshly computed stage output so
// neighbor Halo requests can be answered.
type HaloPublish func(stage int, rows Range, t *tensor.Tensor)

// StageObserver is invoked after each stage completes (trace spans).
type StageObserver func(stage int, name string, start, end time.Time)

// RunShard evaluates every plan stage for one shard. image must hold
// exactly the rows ImageRange(owners, shard) of the input picture; the
// returned tensor is the shard's band of the final stage's output
// (nil when the band is empty) together with that band.
//
// Deadlock freedom of the gang: stage i's assembly only fetches rows of
// stage i−1, which every owner publishes before starting its own stage
// i — so any Wait is for a value strictly earlier in its producer's
// program order, and the dependency graph across workers is acyclic.
func (se *ShardEval) RunShard(image *tensor.Tensor, shard int, owners [][]Range, fetch HaloFetch, publish HaloPublish, obs StageObserver) (*tensor.Tensor, Range, error) {
	var prev *tensor.Tensor
	var prevOwn Range
	for i := range se.p.Stages {
		out := owners[i][shard]
		var x *tensor.Tensor
		var err error
		if i == 0 {
			x = image
			if out.Empty() {
				x = nil
			}
		} else {
			x, err = se.assemble(i, shard, prev, prevOwn, owners, fetch)
			if err != nil {
				return nil, Range{}, err
			}
		}
		start := time.Now()
		y, err := se.EvalStage(i, x, out)
		if err != nil {
			return nil, Range{}, err
		}
		if obs != nil {
			obs(i, se.p.Stages[i].Name, start, time.Now())
		}
		if publish != nil && y != nil {
			publish(i, out, y)
		}
		prev, prevOwn = y, out
	}
	return prev, owners[len(se.p.Stages)-1][shard], nil
}

// assemble builds stage i's input band for shard: the clipped input
// rows, stitched from this shard's own previous-stage output plus halo
// rows fetched from every other owner whose band intersects the need.
func (se *ShardEval) assemble(i, shard int, prev *tensor.Tensor, prevOwn Range, owners [][]Range, fetch HaloFetch) (*tensor.Tensor, error) {
	st := se.p.Stages[i]
	out := owners[i][shard]
	if out.Empty() {
		return nil, nil
	}
	need := st.ClipInput(st.InputRange(out))
	if need.Empty() {
		return nil, nil
	}
	x := tensor.New(1, st.InC, need.Len(), st.InW)
	covered := 0
	for o, band := range owners[i-1] {
		seg := intersect(band, need)
		if seg.Empty() {
			continue
		}
		src, srcBase := prev, prevOwn.Lo
		if o != shard {
			var err error
			src, err = fetch(i-1, o, seg)
			if err != nil {
				return nil, fmt.Errorf("distserve: stage %s: halo %v from shard %d: %w", st.Name, seg, o, err)
			}
			srcBase = seg.Lo
		}
		if src == nil {
			return nil, fmt.Errorf("distserve: stage %s: shard %d owns %v but produced nothing", st.Name, o, band)
		}
		copyRows(x, seg.Lo-need.Lo, src, seg.Lo-srcBase, seg.Len())
		covered += seg.Len()
	}
	if covered != need.Len() {
		return nil, fmt.Errorf("distserve: stage %s: assembled %d of %d input rows %v", st.Name, covered, need.Len(), need)
	}
	return x, nil
}

// copyRows copies `rows` H-rows between two batch-1 NCHW tensors that
// agree on C and W, channel by channel (each channel's rows are
// contiguous in NCHW).
func copyRows(dst *tensor.Tensor, dstRow int, src *tensor.Tensor, srcRow, rows int) {
	ds, ss := dst.Shape(), src.Shape()
	c, w := ds.C(), ds.W()
	dh, sh := ds.H(), ss.H()
	dd, sd := dst.Data(), src.Data()
	for ch := 0; ch < c; ch++ {
		d0 := (ch*dh + dstRow) * w
		s0 := (ch*sh + srcRow) * w
		copy(dd[d0:d0+rows*w], sd[s0:s0+rows*w])
	}
}

// SliceRows extracts rows [r.Lo, r.Hi) (relative to base row `base`) of
// a batch-1 NCHW tensor into a fresh tensor.
func SliceRows(t *tensor.Tensor, base int, r Range) *tensor.Tensor {
	s := t.Shape()
	out := tensor.New(1, s.C(), r.Len(), s.W())
	copyRows(out, 0, t, r.Lo-base, r.Len())
	return out
}
