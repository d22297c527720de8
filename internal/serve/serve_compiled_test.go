package serve_test

import (
	"context"
	"net/http"
	"testing"
	"time"

	"splitcnn/internal/graph"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// interpretedReference returns the engine-equality oracle for spec: the
// interpreted graph.Executor in eval mode over serve.Materialize of the
// same spec at batch 1. It is the training engine, so serving must
// match it bit for bit.
func interpretedReference(t *testing.T, spec serve.Spec) func(img []float32) []float32 {
	t.Helper()
	spec.MaxBatch = 1
	m, store, err := serve.Materialize(spec)
	if err != nil {
		t.Fatalf("materialize reference: %v", err)
	}
	ex, err := graph.NewExecutor(m.Graph, store)
	if err != nil {
		t.Fatalf("reference executor: %v", err)
	}
	s := m.Input.Shape
	x := tensor.New(1, s.C(), s.H(), s.W())
	feeds := graph.Feeds{"image": x, "labels": tensor.New(1)}
	return func(img []float32) []float32 {
		copy(x.Data(), img)
		outs, err := ex.Forward(feeds)
		if err != nil {
			t.Fatalf("reference forward: %v", err)
		}
		return append([]float32(nil), outs[0].Data()...)
	}
}

// TestServeCompiledEndToEnd is the serve end-to-end engine check: 64
// concurrent clients go through the compiled program behind the HTTP
// front end, and every answer must be bit-identical to the interpreted
// executor's forward of that image alone. Runs under -race in
// `make race`, which also exercises the dispatcher/program handoff.
func TestServeCompiledEndToEnd(t *testing.T) {
	spec := serve.Spec{Name: "tiny", ModelText: modelText, Snapshot: writeFixtureSnapshot(t), MaxBatch: 8}
	reg, err := serve.NewRegistry(spec)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	srv := serve.NewServer(reg, serve.Options{
		MaxDelay:       20 * time.Millisecond,
		QueueDepth:     128,
		RequestTimeout: 30 * time.Second,
		Metrics:        trace.NewMetrics(),
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	inst, _ := reg.Lookup("tiny")
	ref := interpretedReference(t, spec)

	const n = 64
	got := burst(t, "http://"+addr.String(), inst.ImageLen(), n)
	coalesced := 0
	for i := 0; i < n; i++ {
		want := ref(testImage(i, inst.ImageLen()))
		if len(got[i].Logits) != len(want) {
			t.Fatalf("request %d: %d logits, want %d", i, len(got[i].Logits), len(want))
		}
		for j := range want {
			if got[i].Logits[j] != want[j] {
				t.Errorf("request %d logit %d = %v, want interpreted-identical %v (batch size %d)",
					i, j, got[i].Logits[j], want[j], got[i].BatchSize)
			}
		}
		if got[i].BatchSize > 1 {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Error("no request was coalesced into a batch > 1 across 64 concurrent requests")
	}

	// The burst can leave a spare pooled connection that never carried a
	// request; the server sees it in StateNew and Shutdown only reaps
	// idle conns. Close the client side so the drain is deterministic.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
