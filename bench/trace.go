package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"tensat"
)

// span is one timed call into a layer, recorded by the harness around
// the call. Spans of one request (or one zoo row) share Req.
type span struct {
	Name   string
	Start  time.Duration // offset from the recorder's origin
	End    time.Duration
	Parent int // index into recorder.spans, -1 for a root
	Req    int
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs share the traced runs' code.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its index for use as a
// parent; -1 on a nil recorder.
func (r *recorder) add(name string, start, end time.Time, parent, req int) int {
	if r == nil {
		return -1
	}
	return r.addOffsets(name, start.Sub(r.origin), end.Sub(r.origin), parent, req)
}

func (r *recorder) addOffsets(name string, start, end time.Duration, parent, req int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (r *recorder) open(name string, parent, req int) int {
	now := time.Now()
	return r.add(name, now, now, parent, req)
}

func (r *recorder) close(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = time.Since(r.origin)
	r.mu.Unlock()
}

// attach hangs a pipeline trace (tensat.Result.Trace, or a daemon's
// /v1/jobs/{id}/trace reply converted to the same type) below parent.
// The tree's own clock starts at base.
func (r *recorder) attach(t *tensat.TraceSpan, base time.Time, parent, req int) {
	if r == nil || t == nil {
		return
	}
	off := base.Sub(r.origin)
	var walk func(s *tensat.TraceSpan, parent int)
	walk = func(s *tensat.TraceSpan, parent int) {
		id := r.addOffsets(s.Name, off+s.Start, off+s.Start+s.Duration, parent, req)
		for _, c := range s.Children {
			walk(c, id)
		}
	}
	walk(t, parent)
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its child spans cover.
func (r *recorder) selfTimes() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			cs, ce := r.spans[k].Start, r.spans[k].End
			if cs < edge {
				cs = edge
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				covered += ce - cs
				edge = ce
			}
		}
		out[s.Name] += (s.End - s.Start - covered).Seconds()
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, one thread
// per request id, which ui.perfetto.dev and chrome://tracing open.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	_, _ = w.WriteString("[")
	for i, s := range r.spans {
		if i > 0 {
			_, _ = w.WriteString(",\n")
		}
		ev, _ := json.Marshal(map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": s.Req,
			"ts": float64(s.Start.Nanoseconds()) / 1e3, "dur": float64((s.End - s.Start).Nanoseconds()) / 1e3,
			"args": map[string]int{"span": i, "parent": s.Parent},
		})
		_, _ = w.Write(ev)
	}
	r.mu.Unlock()
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
