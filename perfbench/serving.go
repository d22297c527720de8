package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"splitcnn/internal/models"
	"splitcnn/internal/serve"
)

// modelFlags fixes the served model's geometry: VGG-19 at width /16 on
// 32x32 inputs, executor batch 8. No engine or tuning flag is passed,
// so the program's defaults are what gets measured.
var modelFlags = []string{"-arch", "vgg19", "-widthdiv", "16", "-classes", "10", "-inh", "32", "-inw", "32", "-maxbatch", "8"}

// modelSpec is modelFlags as the in-process serve.Spec the splitcnn
// command builds from them; the reference logits come from it.
func modelSpec() serve.Spec {
	return serve.Spec{
		Name: "vgg19", Arch: "vgg19", MaxBatch: 8,
		Model: models.Config{Classes: 10, InputC: 3, InputH: 32, InputW: 32, WidthDiv: 16, BatchNorm: true},
	}
}

// referenceLogits runs every image alone through an in-process
// serve.Instance of the same commit: the logits a served answer must
// equal bit for bit.
func referenceLogits(imgs [][]float32) ([][]float32, error) {
	inst, err := serve.Load(modelSpec())
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(imgs))
	for i, img := range imgs {
		res, err := inst.Run([][]float32{img})
		if err != nil {
			return nil, err
		}
		out[i] = append([]float32(nil), res[0]...)
	}
	return out, nil
}

// stack is one launched serving system: its processes, front end last,
// and the base URL of its HTTP front end.
type stack struct {
	procs []*child
	base  string
}

// stop stops the front end first, then the processes behind it.
func (s *stack) stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

// peakRSSMiB sums VmHWM over the stack's processes.
func (s *stack) peakRSSMiB() (float64, error) {
	var kib int64
	for _, c := range s.procs {
		v, err := c.peakRSSKiB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		kib += v
	}
	return float64(kib) / 1024, nil
}

const startTimeout = 60 * time.Second

// addrAfter returns the text after the last " on " of a banner line,
// without a scheme.
func addrAfter(line string) (string, error) {
	i := strings.LastIndex(line, " on ")
	if i < 0 {
		return "", fmt.Errorf("no address in %q", line)
	}
	return strings.TrimPrefix(strings.TrimSpace(line[i+4:]), "http://"), nil
}

// launchServe starts one single-process `splitcnn serve`.
func launchServe(bin, logDir string, extra ...string) (*stack, error) {
	args := append(append([]string{"serve", "-addr", "127.0.0.1:0"}, modelFlags...), extra...)
	c, err := startChild("serve", bin, logDir, args...)
	if err != nil {
		return nil, err
	}
	st := &stack{procs: []*child{c}}
	l, err := c.waitLine("serving", startTimeout)
	if err == nil {
		var addr string
		addr, err = addrAfter(l.text)
		st.base = "http://" + addr
	}
	if err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// routerWorkers is the gang size of the router workload.
const routerWorkers = 2

// launchRouter starts routerWorkers `splitcnn worker` processes and a
// `splitcnn router` over them, and returns once the router reports
// every worker healthy.
func launchRouter(bin, logDir string) (*stack, error) {
	st := &stack{}
	fail := func(err error) (*stack, error) {
		st.stop()
		return nil, err
	}
	for i := 0; i < routerWorkers; i++ {
		c, err := startChild(fmt.Sprintf("worker%d", i), bin, logDir,
			append([]string{"worker", "-addr", "127.0.0.1:0"}, modelFlags...)...)
		if err != nil {
			return fail(err)
		}
		st.procs = append(st.procs, c)
	}
	var addrs []string
	for _, c := range st.procs {
		l, err := c.waitLine("shard worker", startTimeout)
		if err != nil {
			return fail(err)
		}
		addr, err := addrAfter(l.text)
		if err != nil {
			return fail(err)
		}
		addrs = append(addrs, addr)
	}
	c, err := startChild("router", bin, logDir,
		append([]string{"router", "-addr", "127.0.0.1:0", "-workers", strings.Join(addrs, ",")}, modelFlags...)...)
	if err != nil {
		return fail(err)
	}
	st.procs = append(st.procs, c)
	l, err := c.waitLine("router", startTimeout)
	if err != nil {
		return fail(err)
	}
	addr, err := addrAfter(l.text)
	if err != nil {
		return fail(err)
	}
	st.base = "http://" + addr
	if err := waitHealthy(st.base, routerWorkers, startTimeout); err != nil {
		return fail(err)
	}
	return st, nil
}

// waitHealthy polls the router's /healthz until want workers are
// healthy.
func waitHealthy(base string, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var h struct {
			Healthy int `json:"healthy_workers"`
		}
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil && h.Healthy >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router: %d of %d workers healthy after %v (last error: %v)", h.Healthy, want, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// setUp launches a stack k times and times each launch until its first
// correct answer. The last stack is left running for the measured
// phases; the earlier ones are stopped.
func setUp(k int, launch func() (*stack, error), bodies [][]byte, want [][]float32, limit time.Duration) (*stack, []float64, error) {
	var times []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		st, err := launch()
		if err != nil {
			return nil, nil, err
		}
		c := newClient(st.base, 1, bodies, want, limit)
		o := c.predict(i % len(bodies))
		times = append(times, time.Since(t0).Seconds())
		c.close()
		if o.err != nil {
			st.stop()
			return nil, nil, fmt.Errorf("first answer: %w", o.err)
		}
		if i == k-1 {
			return st, times, nil
		}
		st.stop()
	}
	return nil, nil, fmt.Errorf("setUp: k = %d", k)
}
