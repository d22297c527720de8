package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"splitcnn/internal/autotune"
	"splitcnn/internal/core"
	"splitcnn/internal/data"
	"splitcnn/internal/distserve"
	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
	"splitcnn/internal/train"
)

// The per-layer measurements of the traced run. Each times calls into
// one package's public functions from here, in this process, on the
// workload's model and inputs; nothing inside the program is traced.

// timeIt runs f reps times and returns each call's duration in ms.
func timeIt(reps int, f func() error) ([]float64, error) {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0)) / 1e6
	}
	return out, nil
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// serveCodec measures serve's JSON request decode and response encode
// on the workload's bodies, the way the server's handler does them.
func serveCodec(res *result, bodies [][]byte, want [][]float32) error {
	i := 0
	dec, err := timeIt(400, func() error {
		var req serve.PredictRequest
		i++
		return json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)])).Decode(&req)
	})
	if err != nil {
		return err
	}
	enc, err := timeIt(400, func() error {
		i++
		return json.NewEncoder(io.Discard).Encode(serve.PredictResponse{
			Model: "vgg19", Logits: want[i%len(want)], BatchSize: 1, QueueUs: 2000, LatencyUs: 9000,
		})
	})
	if err != nil {
		return err
	}
	var size float64
	for _, b := range bodies {
		size += float64(len(b))
	}
	res.set("serve.decode_us", "us", median(dec)*1e3)
	res.set("serve.encode_us", "us", median(enc)*1e3)
	res.set("serve.body_bytes", "bytes", size/float64(len(bodies)))
	return nil
}

// forwardTimes measures serve.Instance.Run at batch 1, 2 and 8 and its
// heap allocations per call, and returns the batch-1 median (ms).
func forwardTimes(res *result, inst *serve.Instance, imgs [][]float32) (float64, error) {
	var b1 float64
	for _, b := range []int{1, 2, 8} {
		ts, err := timeIt(40, func() error { _, err := inst.Run(imgs[:b]); return err })
		if err != nil {
			return 0, err
		}
		res.set(fmt.Sprintf("graph.forward_ms.b%d", b), "ms", median(ts))
		if b == 1 {
			b1 = median(ts)
		}
	}
	// The count moves with collections (the tensor package's sync.Pool
	// empties at each), so it is the median over batches of calls.
	const batches, reps = 5, 20
	var perCall []float64
	for k := 0; k < batches; k++ {
		a0 := heapAllocs()
		for i := 0; i < reps; i++ {
			if _, err := inst.Run(imgs[:8]); err != nil {
				return 0, err
			}
		}
		perCall = append(perCall, float64(heapAllocs()-a0)/reps)
	}
	res.set("graph.allocs_per_forward", "count", median(perCall))
	return b1, nil
}

// batcherReplay submits the first n arrivals of a phase's schedule to an
// in-process serve.Batcher over the instance, through conns submitters
// that each wait for their answer (as the HTTP connections do), and
// returns the median queue wait (µs) and the images per executor pass.
func batcherReplay(inst *serve.Instance, imgs [][]float32, sched []time.Duration, conns int, spans *spanLog, phase string) (queueUs, batchMean float64, err error) {
	b := serve.NewBatcher(inst, serve.BatcherOptions{})
	defer b.Shutdown()
	n := len(sched)
	waits := make([]float64, n)
	passes := make([]float64, n)
	errs := make([]error, n)
	queue := make(chan int, n) // holds the whole schedule: the dispatcher never blocks
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				t0 := time.Now()
				ch, err := b.Submit(&serve.Request{Image: imgs[i%len(imgs)]})
				if err != nil {
					errs[i] = err
					continue
				}
				r := <-ch
				if r.Err != nil {
					errs[i] = r.Err
					continue
				}
				waits[i] = float64(r.QueueWait) / 1e3
				passes[i] = 1 / float64(r.BatchSize)
				id := fmt.Sprintf("replay.%s-%05d", phase, i)
				root := spans.add("serve.batcher", "submit", id, 0, t0, time.Now(), map[string]any{"batch": r.BatchSize})
				spans.add("serve.batcher", "queue", id, root, t0, t0.Add(r.QueueWait), nil)
			}
		}()
	}
	for i, off := range sched {
		if d := time.Until(start.Add(off)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	var sumPasses float64
	for i := range errs {
		if errs[i] != nil {
			return 0, 0, fmt.Errorf("batcher replay %s: request %d: %w", phase, i, errs[i])
		}
		sumPasses += passes[i]
	}
	return median(waits), float64(n) / sumPasses, nil
}

// opClass buckets an op kind for the per-op self-time metrics.
func opClass(kind string) string {
	switch kind {
	case "conv":
		return "conv"
	case "batchnorm", "bnrelu":
		return "bn"
	case "maxpool", "avgpool", "gap":
		return "pool"
	case "linear":
		return "linear"
	case "extract_patch", "concat_patches":
		return "patch"
	}
	return "other"
}

// convFLOPs is one forward pass's convolution FLOPs (two per
// multiply-add), computed from the autotune.Sites shapes: each distinct
// geometry times the number of conv nodes that have it.
func convFLOPs(g *graph.Graph) float64 {
	count := map[autotune.Key]int{}
	for _, n := range g.OpNodes() {
		c, ok := n.Op.(interface{ Window() tensor.ConvParams })
		if n.Op.Kind() == "conv" && ok && len(n.Inputs) > 0 {
			count[autotune.KeyOf(c.Window(), n.Inputs[0].Shape, n.Shape.C())]++
		}
	}
	var flops float64
	for _, s := range autotune.Sites(g) {
		oh, ow := s.Params.OutSize(s.In.H(), s.In.W())
		macs := float64(s.In.N()*s.Cout*oh*ow) * float64(s.In.C()*s.Params.KH*s.Params.KW)
		flops += 2 * macs * float64(count[s.Key()])
	}
	return flops
}

// serveOps times every op of the serving model's forward pass through
// graph.Executor.Hook on a serve.Materialize model at batch 8, and
// reports the self time per forward of each op class plus the conv
// rate. The interpreted executor runs one op at a time, so an op's
// duration is its self time.
func serveOps(res *result, imgs [][]float32, spans *spanLog) error {
	m, store, err := serve.Materialize(modelSpec())
	if err != nil {
		return err
	}
	ex, err := graph.NewExecutor(m.Graph, store)
	if err != nil {
		return err
	}
	ex.UseArena(tensor.NewArena())
	x := tensor.New(8, 3, 32, 32)
	for i := 0; i < 8; i++ {
		copy(x.Data()[i*len(imgs[i]):], imgs[i])
	}
	feeds := graph.Feeds{"image": x, "labels": tensor.New(8)}
	kinds := map[string]string{}
	for _, n := range m.Graph.OpNodes() {
		kinds[n.Name] = opClass(n.Op.Kind())
	}
	if _, err := ex.Forward(feeds); err != nil { // warm the arena
		return err
	}
	self := map[string]float64{}
	var pass int64
	var owner string
	ex.Hook = func(ev graph.OpEvent) {
		self[kinds[ev.Name]] += ev.Dur
		s := ex.HookBase.Add(time.Duration(ev.Start * 1e9))
		spans.add("nn.serve", ev.Name, owner, pass, s, s.Add(time.Duration(ev.Dur*1e9)), map[string]any{"kind": ev.Kind})
	}
	const reps = 20
	for i := 0; i < reps; i++ {
		pass, owner = spans.newID(), fmt.Sprintf("forward-%d", i)
		ex.HookBase = time.Now()
		if _, err := ex.Forward(feeds); err != nil {
			return err
		}
		spans.addWithID(pass, "nn.serve", "Executor.Forward", owner, 0, ex.HookBase, time.Now(), map[string]any{"batch": 8})
	}
	for _, c := range []string{"conv", "bn", "pool", "linear", "other"} {
		res.set("nn."+c+"_ms.serve", "ms", self[c]/reps*1e3)
	}
	res.set("tensor.conv_gflops.serve", "GFLOP/s", convFLOPs(m.Graph)/(self["conv"]/reps)/1e9)
	return nil
}

// trainRecorder accumulates the trainer's per-op spans by op class,
// forward and backward apart.
type trainRecorder struct {
	mu    sync.Mutex
	kinds map[string]string
	self  map[string]float64
}

func (r *trainRecorder) Span(_, name string, start, end float64) {
	base, bwd := name, false
	if n, ok := strings.CutSuffix(name, ".bwd"); ok {
		base, bwd = n, true
	}
	class, ok := r.kinds[base]
	if !ok {
		class = "other"
	}
	if class == "conv" {
		if bwd {
			class = "conv_bwd"
		} else {
			class = "conv_fwd"
		}
	}
	r.mu.Lock()
	r.self[class] += end - start
	r.mu.Unlock()
}

// trainSplit is the training block's split configuration.
var trainSplit = core.Config{Depth: 0.75, NH: 2, NW: 2}

// trainModel builds the training block's VGG-19 at batch 32: the model
// `splitcnn train` builds from trainFlags.
func trainModel() (*models.Model, error) {
	return models.Build("vgg19", models.Config{
		BatchSize: trainBatch, Classes: 10, InputC: 3, InputH: 32, InputW: 32, WidthDiv: 16, BatchNorm: true,
	})
}

// trainLayers runs an in-process train.Run of the training block's
// model and data (one epoch of 1024 images) with a Recorder for per-op
// self time, a step log for step times and an AfterStep hook counting
// heap allocations per step, and times its set-up from data generation
// to the end of the first step; then times core.Split on the model.
func trainLayers(res *result, spans *spanLog) error {
	m, err := trainModel()
	if err != nil {
		return err
	}
	sr, err := core.Split(m.Graph, trainSplit)
	if err != nil {
		return err
	}
	rec := &trainRecorder{kinds: map[string]string{}, self: map[string]float64{}}
	for _, n := range sr.Graph.OpNodes() {
		rec.kinds[n.Name] = opClass(n.Op.Kind())
	}
	t0 := time.Now()
	dcfg := data.CIFARLike(1024, 32)
	dcfg.Noise, dcfg.MaxShift = 0.9, 6 // as `splitcnn train` draws its data
	ds, err := data.Synthetic(dcfg)
	if err != nil {
		return err
	}
	var log bytes.Buffer
	sl := trace.NewStepLog(&log)
	var allocs []float64
	var setup time.Duration
	last := heapAllocs()
	lastT := time.Now()
	runSpan := spans.newID()
	cfg := train.Config{
		Arch: "vgg19", Model: models.Config{WidthDiv: 16, BatchNorm: true},
		BatchSize: trainBatch, Epochs: 1, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4,
		Split: trainSplit, Seed: 7, Recorder: rec, StepLog: sl,
		AfterStep: func(step int, _ *graph.ParamStore) {
			a, now := heapAllocs(), time.Now()
			if step == 1 {
				setup = now.Sub(t0)
			}
			allocs = append(allocs, float64(a-last))
			name := "step"
			if step == 1 {
				name = "set-up and step" // lastT is still the call of train.Run
			}
			spans.add("train", name, fmt.Sprintf("step-%d", step), runSpan, lastT, now, nil)
			last, lastT = a, now
		},
	}
	if _, err := train.Run(cfg, ds); err != nil {
		return err
	}
	spans.addWithID(runSpan, "train", "train.Run", "train-run", 0, t0, time.Now(), nil)
	if err := sl.Close(); err != nil {
		return err
	}
	steps, _, err := trace.ReadStepLog(&log)
	if err != nil {
		return err
	}
	var stepMs []float64
	for _, s := range steps {
		stepMs = append(stepMs, s.StepSeconds*1e3)
	}
	n := float64(len(steps))
	res.set("train.setup_ms", "ms", float64(setup)/1e6)
	res.set("train.step_ms", "ms", median(stepMs))
	// The first step also builds the arena; the median is steady state.
	res.set("train.allocs_per_step", "count", median(allocs))
	for _, c := range []string{"conv_fwd", "conv_bwd", "patch", "bn", "other"} {
		res.set("nn."+c+"_ms.train", "ms", rec.self[c]/n*1e3)
	}
	// Backward does about twice the forward's work (data and weight
	// gradients), so a training step's conv FLOPs are taken as 3x.
	res.set("tensor.conv_gflops.train", "GFLOP/s",
		3*convFLOPs(sr.Graph)/((rec.self["conv_fwd"]+rec.self["conv_bwd"])/n)/1e9)

	splits, err := timeIt(9, func() error { _, err := core.Split(m.Graph, trainSplit); return err })
	if err != nil {
		return err
	}
	res.set("core.split_ms", "ms", median(splits))
	return nil
}

// distLayers runs the router path in process: routerWorkers
// distserve.Workers on loopback RPC and a distserve.Router over them,
// then times Router.Predict and reads the workers' own histograms and
// counters through Worker.Metrics.
func distLayers(res *result, imgs [][]float32, want [][]float32, spans *spanLog) error {
	spec := modelSpec()
	var workers []*distserve.Worker
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	var addrs []string
	for i := 0; i < routerWorkers; i++ {
		w, err := distserve.StartWorker("127.0.0.1:0", distserve.WorkerConfig{Spec: spec, Metrics: trace.NewMetrics()})
		if err != nil {
			return err
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	rt, err := distserve.NewRouter(distserve.RouterOptions{Spec: spec, Workers: addrs, NoProfiler: true})
	if err != nil {
		return err
	}
	if _, err := rt.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	}()
	predict := func(i int) error {
		logits, _, err := rt.Predict(imgs[i%len(imgs)], time.Now().Add(5*time.Second), nil)
		if err != nil {
			return err
		}
		if err := equalBits(logits, want[i%len(want)]); err != nil {
			return fmt.Errorf("distserve in-process predict: %w", err)
		}
		return nil
	}
	for i := 0; i < 10; i++ { // warm connections and arenas
		if err := predict(i); err != nil {
			return err
		}
	}
	before := make([]trace.Snapshot, len(workers))
	for i, w := range workers {
		before[i] = w.Metrics().Snapshot()
	}
	const reqs = 100
	a0 := heapAllocs()
	i := 0
	lat, err := timeIt(reqs, func() error {
		t0 := time.Now()
		err := predict(i)
		spans.add("distserve", "Router.Predict", fmt.Sprintf("dist-%03d", i), 0, t0, time.Now(), nil)
		i++
		return err
	})
	if err != nil {
		return err
	}
	allocs := float64(heapAllocs()-a0) / reqs
	var evals, halos int64
	var evalSum, haloSum float64
	for k, w := range workers {
		after := w.Metrics().Snapshot()
		evals += after.Counters["dist.worker.requests"] - before[k].Counters["dist.worker.requests"]
		halos += after.Counters["dist.worker.halo_requests"] - before[k].Counters["dist.worker.halo_requests"]
		evalSum += after.Histograms["dist.worker.eval_seconds"].Sum - before[k].Histograms["dist.worker.eval_seconds"].Sum
		haloSum += after.Histograms["dist.worker.halo_wait_seconds"].Sum - before[k].Histograms["dist.worker.halo_wait_seconds"].Sum
	}
	if evals == 0 {
		return fmt.Errorf("distserve: workers counted no evaluations")
	}
	res.set("distserve.predict_ms", "ms", median(lat))
	// Histogram sum/count is exact; only its quantiles are bucketed.
	res.set("distserve.eval_ms", "ms", evalSum/float64(evals)*1e3)
	res.set("distserve.halo_wait_ms", "ms", haloSum/float64(evals)*1e3)
	res.set("dist.rpc_calls_per_req", "count", float64(evals+halos)/reqs)
	res.set("dist.halo_bytes_per_req", "bytes", haloBytes(rt.Plan(), routerWorkers))
	res.set("distserve.allocs_per_req", "count", allocs)
	return nil
}

// haloBytes computes the halo rows one request moves between a gang of
// n shards from the shard plan, as the workers' assembly fetches them:
// every row a shard's stage input needs from another owner's band.
func haloBytes(p *distserve.Plan, n int) float64 {
	owners := p.Owners(n)
	var bytes float64
	for i := 1; i < len(p.Stages); i++ {
		st := p.Stages[i]
		for s := 0; s < n; s++ {
			out := owners[i][s]
			if out.Empty() {
				continue
			}
			need := st.ClipInput(st.InputRange(out))
			for o, band := range owners[i-1] {
				lo, hi := max(band.Lo, need.Lo), min(band.Hi, need.Hi)
				if o != s && hi > lo {
					bytes += float64(st.InC*(hi-lo)*st.InW) * 4
				}
			}
		}
	}
	return bytes
}
