package distserve

import (
	"errors"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"splitcnn/internal/dist"
	"splitcnn/internal/tensor"
)

// haloBand is the row band every stage publishes in the halo tests.
var haloBand = Range{2, 6}

const haloReqID = "halo-req"

// startHaloWorker starts a loopback worker and publishes, for every
// stage of its plan, output rows haloBand of request haloReqID. Each
// value encodes its (stage, channel, row, column) so a reply can be
// checked element by element.
func startHaloWorker(t testing.TB) *Worker {
	t.Helper()
	w, err := StartWorker("127.0.0.1:0", WorkerConfig{Spec: testSpec("vgg16"), RuntimeMetricsInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	w.exch.Open(haloReqID, time.Now().Add(time.Hour))
	for s, st := range w.plan.Stages {
		band := tensor.New(1, st.OutC, haloBand.Len(), st.OutW)
		for i := range band.Data() {
			band.Data()[i] = float32(s*1e6 + i)
		}
		w.exch.Publish(haloReqID, s, &haloRows{rows: haloBand, t: band})
	}
	return w
}

// TestHaloRejectsMalformedRequests sends Shard.Halo requests with an
// empty or inverted row range and with out-of-range stages over
// loopback RPC. Each must come back as a named error, and the worker
// must stay up to serve a well-formed request afterwards.
func TestHaloRejectsMalformedRequests(t *testing.T) {
	w := startHaloWorker(t)
	pool := dist.NewClientPool()
	defer pool.Close()
	call := func(args HaloArgs) (HaloReply, error) {
		args.ReqID = haloReqID
		if args.TimeoutMs == 0 {
			args.TimeoutMs = 200
		}
		var reply HaloReply
		err := pool.Call(w.Addr(), "Shard.Halo", &args, &reply, 5*time.Second)
		return reply, err
	}
	for _, args := range []HaloArgs{
		{Stage: 0, Lo: 3, Hi: 1},
		{Stage: 0, Lo: 3, Hi: 3},
		{Stage: -1, Lo: 2, Hi: 4},
		{Stage: len(w.plan.Stages), Lo: 2, Hi: 4},
	} {
		_, err := call(args)
		var se rpc.ServerError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), "halo wants") {
			t.Errorf("Halo(stage %d, rows [%d,%d)) = %v, want a handled halo error", args.Stage, args.Lo, args.Hi, err)
		}
	}
	reply, err := call(HaloArgs{Stage: 0, Lo: 3, Hi: 5})
	if err != nil {
		t.Fatalf("well-formed halo after malformed ones: %v", err)
	}
	st := w.plan.Stages[0]
	if len(reply.Data) != bandLen(st.OutC, 2, st.OutW) {
		t.Fatalf("halo returned %d floats, want %d", len(reply.Data), bandLen(st.OutC, 2, st.OutW))
	}
}

// FuzzShardHalo drives the Shard.Halo handler with arbitrary stage,
// row range and time budget against a published band: it must return
// exactly the requested rows or an error, and never panic. The seed
// corpus is in testdata/fuzz/FuzzShardHalo.
func FuzzShardHalo(f *testing.F) {
	w := startHaloWorker(f)
	f.Fuzz(func(t *testing.T, stage, lo, hi int, timeoutMs int64) {
		var reply HaloReply
		err := w.halo(&HaloArgs{ReqID: haloReqID, Stage: stage, Lo: lo, Hi: hi, TimeoutMs: timeoutMs}, &reply)
		if err != nil {
			return
		}
		if stage < 0 || stage >= len(w.plan.Stages) || lo < haloBand.Lo || hi > haloBand.Hi || lo >= hi {
			t.Fatalf("Halo(stage %d, rows [%d,%d)) succeeded outside the published band", stage, lo, hi)
		}
		st := w.plan.Stages[stage]
		if len(reply.Data) != bandLen(st.OutC, hi-lo, st.OutW) {
			t.Fatalf("Halo(stage %d, rows [%d,%d)) returned %d floats", stage, lo, hi, len(reply.Data))
		}
		i := 0
		for c := 0; c < st.OutC; c++ {
			for r := lo; r < hi; r++ {
				for x := 0; x < st.OutW; x++ {
					want := float32(stage*1e6 + (c*haloBand.Len()+r-haloBand.Lo)*st.OutW + x)
					if reply.Data[i] != want {
						t.Fatalf("Halo(stage %d, rows [%d,%d)) value %d = %v, want %v", stage, lo, hi, i, reply.Data[i], want)
					}
					i++
				}
			}
		}
	})
}
