package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Generator health limits. An open-loop phase whose dispatcher woke
// more than maxLagMs late at its p99 (a tenth of the latency limit),
// or that still had more than maxBacklogShare of its requests waiting
// for a connection when its last one fell due, did not apply its
// schedule: it is flagged invalid and its latencies are not reported.
// A brief stall of the host delays a few wake-ups by some
// milliseconds; it does not trip these.
const (
	maxLagMs        = 25
	maxBacklogShare = 0.05
)

// capacityWindow is the window a closed loop's completion rate is
// counted over; capacity is the median window.
const capacityWindow = 250 * time.Millisecond

// client sends /v1/predict requests over a fixed set of keep-alive
// connections and checks every answer against reference logits.
type client struct {
	url    string
	http   *http.Client
	bodies [][]byte
	want   [][]float32 // reference logits, one per body
	limit  time.Duration
	spans  *spanLog // nil on untraced runs
}

func newClient(base string, conns int, bodies [][]byte, want [][]float32, limit time.Duration) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{
		url:    base + "/v1/predict",
		http:   &http.Client{Transport: tr, Timeout: 10 * time.Second},
		bodies: bodies,
		want:   want,
		limit:  limit,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// outcome is one request's timeline and verdict.
type outcome struct {
	due, sent, recv, done time.Time
	err                   error
}

// predict sends body i and checks the logits bit for bit.
func (c *client) predict(i int) outcome {
	var o outcome
	o.sent = time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(c.bodies[i]))
	if err != nil {
		o.recv, o.done, o.err = time.Now(), time.Now(), err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.recv = time.Now()
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		o.err = checkLogits(body, c.want[i])
	}
	o.done = time.Now()
	return o
}

// checkLogits decodes a predict response and compares its logits with
// want bit for bit.
func checkLogits(body []byte, want []float32) error {
	var pr struct {
		Logits []float32 `json:"logits"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return equalBits(pr.Logits, want)
}

// equalBits compares two logit vectors bit for bit.
func equalBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d logits, want %d", len(got), len(want))
	}
	for k := range want {
		if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
			return fmt.Errorf("logit %d is %v, reference %v", k, got[k], want[k])
		}
	}
	return nil
}

// phase is the record of one load phase.
type phase struct {
	name      string
	rate      float64 // scheduled req/s; 0 for a closed loop
	attempted int
	failed    int
	overLimit int
	// lat holds each request's latency in ms: from its due time in an
	// open loop, from its send time in a closed loop. A failed request
	// is +Inf, so it misses any latency limit.
	lat      []float64
	lagMs    []float64 // open loop: dispatcher wake-up lateness per request
	backlog  int       // open loop: requests still unsent when the last fell due, summed over merged rounds
	wall     time.Duration
	firstErr error
	// windowRates is, for a closed loop, the rate of correct completions
	// in each whole window of the phase.
	windowRates []float64
}

// completedPerSec is the rate of successful requests over the phase.
func (p *phase) completedPerSec() float64 {
	return float64(p.attempted-p.failed) / p.wall.Seconds()
}

// capacity is the median of a closed loop's windowed completion rates:
// a window stalled by a collection or a noisy neighbour does not move it.
func (p *phase) capacity() float64 { return median(p.windowRates) }

// merge pools another round's segment of the same phase into p.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.overLimit += q.overLimit
	p.lat = append(p.lat, q.lat...)
	p.lagMs = append(p.lagMs, q.lagMs...)
	p.windowRates = append(p.windowRates, q.windowRates...)
	p.backlog += q.backlog
	p.wall += q.wall
}

// valid reports whether an open-loop generator kept to its schedule.
func (p *phase) valid() (bool, string) {
	if p.rate == 0 {
		return true, ""
	}
	lag, _ := nearestRank(append([]float64(nil), p.lagMs...), 0.99)
	if lag > maxLagMs {
		return false, fmt.Sprintf("generator lag p99 %.2f ms > %d ms", lag, maxLagMs)
	}
	if float64(p.backlog) > maxBacklogShare*float64(p.attempted) {
		return false, fmt.Sprintf("backlog %d of %d requests at phase end", p.backlog, p.attempted)
	}
	return true, ""
}

// openLoop sends one request at each offset of sched (from a start a
// few milliseconds ahead), whatever the state of earlier requests:
// independent users. A request waits for a free connection when all
// are busy, and that wait counts in its latency, which runs from its
// due time. Request i carries body i mod len(bodies).
func (c *client) openLoop(name string, rate float64, sched []time.Duration, conns int) *phase {
	n := len(sched)
	p := &phase{name: name, rate: rate, attempted: n, lagMs: make([]float64, n)}
	outs := make([]outcome, n)
	queue := make(chan int, n) // holds the whole schedule: the dispatcher never blocks
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				o := c.predict(i % len(c.bodies))
				o.due = start.Add(sched[i])
				outs[i] = o
				c.spans.request(fmt.Sprintf("%s-%05d", name, i), w, o)
			}
		}(w)
	}
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.lagMs[i] = float64(time.Since(due)) / 1e6
		queue <- i
	}
	p.backlog = len(queue)
	close(queue)
	wg.Wait()
	last := start
	for _, o := range outs {
		p.record(o, o.due, c.limit)
		if o.done.After(last) {
			last = o.done
		}
	}
	p.wall = last.Sub(start)
	return p
}

// closedLoop keeps conns requests in flight for dur: each connection
// sends its next request as soon as the previous one is answered.
func (c *client) closedLoop(name string, dur time.Duration, conns int) *phase {
	p := &phase{name: name}
	start := time.Now()
	deadline := start.Add(dur)
	var next atomic.Int64
	outs := make([][]outcome, conns)
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				o := c.predict(i % len(c.bodies))
				o.due = o.sent
				outs[w] = append(outs[w], o)
				c.spans.request(fmt.Sprintf("%s-%05d", name, i), w, o)
			}
		}(w)
	}
	wg.Wait()
	last := start
	p.windowRates = make([]float64, int(dur/capacityWindow))
	for _, ws := range outs {
		for _, o := range ws {
			p.attempted++
			p.record(o, o.sent, c.limit)
			if o.done.After(last) {
				last = o.done
			}
			if k := int(o.done.Sub(start) / capacityWindow); o.err == nil && k < len(p.windowRates) {
				p.windowRates[k] += float64(time.Second / capacityWindow)
			}
		}
	}
	p.wall = last.Sub(start)
	return p
}

// record folds one outcome into the phase: a failed request, or one
// slower than limit, counts as failed, and a failed one is +Inf.
func (p *phase) record(o outcome, from time.Time, limit time.Duration) {
	d := o.done.Sub(from)
	lat := float64(d) / 1e6
	switch {
	case o.err != nil:
		p.failed++
		lat = math.Inf(1)
		if p.firstErr == nil {
			p.firstErr = o.err
		}
	case d > limit:
		p.failed++
		p.overLimit++
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("latency %v over the %v limit", d, limit)
		}
	}
	p.lat = append(p.lat, lat)
}
