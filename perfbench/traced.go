package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

// tracedShare is the share of --seconds each traced-run load phase
// lasts; it only needs a steady p50.
const tracedShare = 0.2

// tracedRun measures the per-layer metrics. It runs the workload's
// low-rate phase twice on one launched stack, untraced and then with
// the client's spans recorded, and reports the difference as the
// tracing overhead. It then times each layer in process, writes every
// span as a Chrome trace_event file and the metrics as a table, and
// checks that the serve parts and their residual sum to the serve p50.
func tracedRun(o options, w workload, dir string, res *result) error {
	imgs, err := images(o.seed, poolSize)
	if err != nil {
		return err
	}
	bodies, err := requestBodies(imgs)
	if err != nil {
		return err
	}
	want, err := referenceLogits(imgs)
	if err != nil {
		return err
	}
	spans := newSpanLog()
	secs := float64(o.seconds)
	lowSched := func(r float64) []time.Duration {
		return poissonSchedule(scheduleSeed(o.seed, 0, lowPhase), r, int(math.Ceil(r*tracedShare*secs)))
	}

	// The workload's own stack: tracing overhead and generator lag.
	st, err := w.launch(o.bin, dir)
	if err != nil {
		return err
	}
	c := newClient(st.base, conns(), bodies, want, latencyLimit)
	plain := c.openLoop("low", w.rates[0], lowSched(w.rates[0]), conns())
	c.spans = spans
	traced := c.openLoop("low", w.rates[0], lowSched(w.rates[0]), conns())
	c.close()
	st.stop()
	for _, p := range []*phase{plain, traced} {
		report(p)
		res.count(p.attempted, p.failed)
		if ok, why := p.valid(); !ok {
			res.problem("traced-run phase %s invalid: %s", p.name, why)
		}
	}
	p50Plain, _ := nearestRank(plain.lat, 0.5)
	p50Traced, _ := nearestRank(traced.lat, 0.5)
	lag, _ := nearestRank(traced.lagMs, 0.99)
	res.set("trace.overhead_ms", "ms", p50Traced-p50Plain)
	res.set("gen.lag_p99_ms", "ms", lag)

	// The serve breakdown needs a serve p50 and a GC-pause reading from
	// a serve process, so a router run launches one as well.
	serveP50, gcFrac, n, failed, err := serveSection(o, dir, bodies, want, lowSched(o.serveRates[0]), spans)
	if err != nil {
		return err
	}
	res.count(n, failed)
	res.set("runtime.gc_pause_frac", "ratio", gcFrac)

	if err := inProcessLayers(o, res, imgs, bodies, want, spans, serveP50); err != nil {
		return err
	}

	if err := spans.tr.WriteFile(filepath.Join(dir, "trace.json")); err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n",
		filepath.Join(dir, "trace.json"), spans.tr.Len())
	return writeTable(filepath.Join(dir, "layers.tsv"), res)
}

// serveSection launches a serve process with fine-grained runtime
// sampling, runs the serve low-rate schedule against it with spans on,
// and returns its p50 (ms) and the share of the phase's wall time its
// GC paused, from /metricsz.
func serveSection(o options, dir string, bodies [][]byte, want [][]float32, sched []time.Duration, spans *spanLog) (p50, gcFrac float64, n, failed int, err error) {
	st, err := launchServe(o.bin, dir, "-runtimemetrics", "100ms")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer st.stop()
	c := newClient(st.base, conns(), bodies, want, latencyLimit)
	defer c.close()
	c.spans = spans
	g0, err := gcPause(st.base)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	t0 := time.Now()
	p := c.openLoop("serve-low", o.serveRates[0], sched, conns())
	time.Sleep(150 * time.Millisecond) // one more runtime sample after the last request
	g1, err := gcPause(st.base)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	wall := time.Since(t0).Seconds()
	report(p)
	if p.firstErr != nil {
		return 0, 0, 0, 0, fmt.Errorf("serve section: %w", p.firstErr)
	}
	p50, _ = nearestRank(p.lat, 0.5)
	return p50, (g1 - g0) / wall, p.attempted, p.failed, nil
}

// gcPause scrapes runtime.gc_pause_total_seconds from /metricsz.
func gcPause(base string) (float64, error) {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var s trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return 0, fmt.Errorf("metricsz: %w", err)
	}
	v, ok := s.Gauges["runtime.gc_pause_total_seconds"]
	if !ok {
		return 0, fmt.Errorf("metricsz has no runtime.gc_pause_total_seconds")
	}
	return v, nil
}

// inProcessLayers times serve, graph, nn, tensor, train, core,
// distserve and dist in this process, then closes the serve breakdown:
// serve.other_us.low is the serve p50 minus decode, queue, forward and
// encode, and the parts plus that residual must sum to the p50.
func inProcessLayers(o options, res *result, imgs [][]float32, bodies [][]byte, want [][]float32, spans *spanLog, serveP50 float64) error {
	loads, err := timeIt(3, func() error { _, err := serve.Load(modelSpec()); return err })
	if err != nil {
		return err
	}
	res.set("serve.load_ms", "ms", median(loads))
	if err := serveCodec(res, bodies, want); err != nil {
		return err
	}
	inst, err := serve.Load(modelSpec())
	if err != nil {
		return err
	}
	fwdB1, err := forwardTimes(res, inst, imgs)
	if err != nil {
		return err
	}
	// The replays take the first arrivals of round 0's schedules.
	secs := float64(o.seconds)
	for k, name := range []string{"low", "high"} {
		r := o.serveRates[k]
		sched := poissonSchedule(scheduleSeed(o.seed, 0, lowPhase+k), r, int(math.Ceil(r*tracedShare*secs/2)))
		q, b, err := batcherReplay(inst, imgs, sched, conns(), spans, name)
		if err != nil {
			return err
		}
		res.set("serve.queue_us."+name, "us", q)
		res.set("serve.batch_mean."+name, "count", b)
	}
	m := func(name string) float64 { return res.Metrics[name].Value }
	p50Us := serveP50 * 1e3
	res.set("serve.other_us.low", "us", p50Us-(m("serve.decode_us")+m("serve.queue_us.low")+fwdB1*1e3+m("serve.encode_us")))
	parts := []float64{m("serve.decode_us"), m("serve.queue_us.low"), m("graph.forward_ms.b1") * 1e3, m("serve.encode_us"), m("serve.other_us.low")}
	var sum float64
	for _, v := range parts {
		sum += v
	}
	if math.Abs(sum-p50Us) > 1e-6*p50Us {
		res.problem("serve parts sum to %.3f us, p50 is %.3f us", sum, p50Us)
	}
	fmt.Printf("serve p50 %.1f us = decode %.1f + queue.low %.1f + forward.b1 %.1f + encode %.1f + other %.1f\n",
		p50Us, parts[0], parts[1], parts[2], parts[3], parts[4])
	if parts[4] < 0 {
		fmt.Printf("note: the in-process parts exceed the served p50 by %.1f us\n", -parts[4])
	}

	if err := serveOps(res, imgs, spans); err != nil {
		return err
	}
	if err := trainLayers(res, spans); err != nil {
		return err
	}
	return distLayers(res, imgs, want, spans)
}

// writeTable writes the run's metrics as a tab-separated table.
func writeTable(path string, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("metric\tvalue\tunit\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%s\t%.9g\t%s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("per-layer table: %s\n", path)
	return nil
}
