package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the span that caused this one (0 for a root). Tid is the
// thread of control the span ran on: 0 for the benchmark's main line,
// 1+k for the serve workload's k-th client.
type span struct {
	ID, Parent int
	Name       string
	Op, Tid    int
	Start, End time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the timed pass runs with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op, tid int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Tid: tid, Start: now, End: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose boundaries were observed elsewhere (the
// engine's own Result.Elapsed, the server's QueuedMS/RunMS), clipped to
// its parent so a clock disagreement cannot make a child stick out.
func (t *tracer) add(name string, parent, op, tid int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s, e := start.Sub(t.epoch), end.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent > 0 {
		p := t.spans[parent-1]
		s, e = max(s, p.Start), min(e, p.End)
		e = max(e, s)
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Tid: tid, Start: s, End: e})
	return len(t.spans)
}

// timed runs fn inside a span and returns its wall time, with or without
// a tracer.
func (t *tracer) timed(name string, parent int, fn func(id int)) time.Duration {
	id := t.begin(name, parent, -1, 0)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children on the same thread of control cover. Children on
// another tid (a client's ops under the main line's phase span) run
// beside their parent, not inside it, and cover nothing.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 && spans[s.Parent-1].Tid == s.Tid {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name, in seconds: the layer budget.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d.Seconds()
	}
	return out
}

// chromeSpan is a Chrome trace_event "complete" event; open the file in
// https://ui.perfetto.dev or chrome://tracing.
type chromeSpan struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]int `json:"args"`
}

type traceFile struct {
	TraceEvents     []chromeSpan   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       traceOtherData `json:"otherData"`
}

type traceOtherData struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfS    map[string]float64 `json:"self_s"` // self time per span name
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	tf := traceFile{
		TraceEvents:     make([]chromeSpan, len(spans)),
		DisplayTimeUnit: "ms",
		OtherData:       traceOtherData{Workload: workload, Seed: seed, SelfS: selfByName(spans)},
	}
	for i, s := range spans {
		tf.TraceEvents[i] = chromeSpan{
			Name: s.Name, Phase: "X", TID: s.Tid,
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
