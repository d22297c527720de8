package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzModel is a small model whose image has 2*4*4 = 32 values.
const fuzzModel = `
input 2 4 4
conv 3 k3 s1 p1
bnrelu
pool max k2 s2
flatten
linear 3
`

// FuzzServePredict POSTs arbitrary bodies to /v1/predict through
// httptest. Every answer must be a 200 carrying logits or a JSON error
// body with a 4xx status — except a 504, which is allowed only for a
// request that asked for a timeout_ms shorter than the server's. The
// seed corpus is in testdata/fuzz/FuzzServePredict.
func FuzzServePredict(f *testing.F) {
	reg, err := NewRegistry(Spec{Name: "fz", ModelText: fuzzModel, MaxBatch: 2})
	if err != nil {
		f.Fatal(err)
	}
	const limit = 10 * time.Second
	srv := NewServer(reg, Options{RequestTimeout: limit})
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	handler := srv.http.Handler
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var pr PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || len(pr.Logits) != 3 {
				t.Fatalf("200 with body %q (err %v)", rec.Body.String(), err)
			}
			return
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d with non-JSON error body %q", rec.Code, rec.Body.String())
		}
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		var req PredictRequest
		if rec.Code == http.StatusGatewayTimeout && json.Unmarshal(body, &req) == nil && req.Timeout(limit) < limit {
			return
		}
		t.Fatalf("status %d (%s) for body %q", rec.Code, e.Error, body)
	})
}
