package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"splitcnn/internal/trace"
)

// spanLog records the benchmark's own spans, taken around its calls
// into the program, as a Chrome trace_event timeline. Each span's args
// carry the request (or measurement) it belongs to, its own span ID and
// its parent's span ID: the cause link. A nil *spanLog records nothing,
// which is how untraced runs stay untraced.
type spanLog struct {
	tr   *trace.Trace
	base time.Time
	ids  atomic.Int64
}

func newSpanLog() *spanLog {
	return &spanLog{tr: trace.New(), base: time.Now()}
}

// newID reserves a span ID, for a parent recorded after its children.
func (s *spanLog) newID() int64 {
	if s == nil {
		return 0
	}
	return s.ids.Add(1)
}

// add records one span and returns its ID (0 on a nil log).
func (s *spanLog) add(stream, name, owner string, parent int64, start, end time.Time, args map[string]any) int64 {
	return s.addWithID(s.newID(), stream, name, owner, parent, start, end, args)
}

// addWithID records one span under a reserved ID.
func (s *spanLog) addWithID(id int64, stream, name, owner string, parent int64, start, end time.Time, args map[string]any) int64 {
	if s == nil {
		return 0
	}
	a := map[string]any{"request": owner, "span": id}
	if parent != 0 {
		a["parent"] = parent
	}
	for k, v := range args {
		a[k] = v
	}
	s.tr.SpanArgs(stream, name, start.Sub(s.base).Seconds(), end.Sub(s.base).Seconds(), a)
	return id
}

// request records one predict request: a root span from its due time
// to its verdict, with the connection wait, the HTTP round trip and the
// logits check as children.
func (s *spanLog) request(id string, conn int, o outcome) {
	if s == nil {
		return
	}
	stream := fmt.Sprintf("client.conn%d", conn)
	root := s.add(stream, "request", id, 0, o.due, o.done, map[string]any{"ok": o.err == nil})
	s.add(stream, "wait_conn", id, root, o.due, o.sent, nil)
	s.add(stream, "http", id, root, o.sent, o.recv, nil)
	s.add(stream, "check", id, root, o.recv, o.done, nil)
}
