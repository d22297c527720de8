package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecordCountsFailuresAndOverLimit(t *testing.T) {
	p := &phase{}
	t0 := time.Now()
	limit := 100 * time.Millisecond
	p.record(outcome{done: t0.Add(10 * time.Millisecond)}, t0, limit)
	p.record(outcome{done: t0.Add(150 * time.Millisecond)}, t0, limit)
	p.record(outcome{done: t0.Add(5 * time.Millisecond), err: errors.New("status 500")}, t0, limit)
	if p.failed != 2 || p.overLimit != 1 {
		t.Fatalf("failed %d, over limit %d; want 2, 1", p.failed, p.overLimit)
	}
	if p.lat[0] != 10 || p.lat[1] != 150 || !math.IsInf(p.lat[2], 1) {
		t.Fatalf("latencies %v, want [10 150 +Inf]", p.lat)
	}
}

func TestValidFlagsLaggingGenerator(t *testing.T) {
	ok := &phase{rate: 10, attempted: 100, lagMs: make([]float64, 100)}
	if v, why := ok.valid(); !v {
		t.Fatalf("on-time phase flagged: %s", why)
	}
	lagging := &phase{rate: 10, attempted: 100, lagMs: make([]float64, 100)}
	for i := 0; i < 5; i++ {
		lagging.lagMs[i] = 50
	}
	if v, _ := lagging.valid(); v {
		t.Fatal("phase whose p99 wake-up was 50ms late not flagged")
	}
	behind := &phase{rate: 10, attempted: 100, lagMs: make([]float64, 100), backlog: 6}
	if v, _ := behind.valid(); v {
		t.Fatal("phase with 6% of its schedule unsent not flagged")
	}
}

// TestLatencyMetricsTakeMediansOverRounds checks that p50 and p95 are
// medians of the rounds' percentiles, so one slow round does not move
// them, and that the p95 is refused when any round cannot support it.
func TestLatencyMetricsTakeMediansOverRounds(t *testing.T) {
	round := func(name string, n int, scale float64) *phase {
		q := &phase{name: name, rate: 10, attempted: n, lagMs: make([]float64, n)}
		for i := 1; i <= n; i++ {
			q.lat = append(q.lat, float64(i)*scale)
		}
		return q
	}
	segs := []*phase{round("low.0", 200, 1), round("low.1", 200, 1), round("low.2", 200, 10)}
	pooled := &phase{name: "low", rate: 10}
	for _, q := range segs {
		pooled.merge(q)
	}
	res := &result{Metrics: map[string]metric{}}
	latencyMetrics(res, pooled, segs)
	if len(res.problems) != 0 || res.Metrics["p50_ms.low"].Value != 100 || res.Metrics["p95_ms.low"].Value != 190 {
		t.Fatalf("metrics %v, problems %v; want p50 100, p95 190 (the slow round ignored)", res.Metrics, res.problems)
	}

	segs = append(segs, round("low.3", 199, 1)) // 9 samples beyond its p95
	res = &result{Metrics: map[string]metric{}}
	latencyMetrics(res, pooled, segs)
	if len(res.problems) != 1 || len(res.Metrics) != 0 {
		t.Fatalf("metrics %v, problems %v; want the round with 9 beyond refused", res.Metrics, res.problems)
	}
}

// TestLoopsCheckEveryAnswer drives both loops against a server that
// answers body 0 correctly, body 1 with wrong logits and body 2 with an
// error status: only body 0's requests may count as completed.
func TestLoopsCheckEveryAnswer(t *testing.T) {
	want := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		switch strings.TrimSpace(string(b)) {
		case "0":
			json.NewEncoder(w).Encode(map[string]any{"logits": want[0]})
		case "1":
			json.NewEncoder(w).Encode(map[string]any{"logits": []float32{3, 4.0000005}})
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2, [][]byte{[]byte("0"), []byte("1"), []byte("2")}, want, time.Second)
	defer c.close()

	p := c.openLoop("t", 1000, poissonSchedule(1, 1000, 30), 2)
	if p.attempted != 30 || p.failed != 20 {
		t.Fatalf("open loop: %d attempted, %d failed; want 30, 20", p.attempted, p.failed)
	}
	q := c.closedLoop("t", 50*time.Millisecond, 2)
	if q.attempted == 0 || q.failed != q.attempted-countFinite(q.lat) {
		t.Fatalf("closed loop: %d attempted, %d failed, %d finite latencies", q.attempted, q.failed, countFinite(q.lat))
	}
	if math.Abs(float64(q.failed)/float64(q.attempted)-2.0/3) > 0.1 {
		t.Fatalf("closed loop: %d of %d failed, want about two thirds", q.failed, q.attempted)
	}
}

func countFinite(xs []float64) int {
	n := 0
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			n++
		}
	}
	return n
}
