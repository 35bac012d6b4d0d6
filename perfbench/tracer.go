package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one operation share Op; Parent links a span to the span that
// caused it (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once when the benchmark
// ends. Each goroutine records into its own lane, so tracing adds no lock
// to the measured path. The nil tracer and the nil lane are valid no-ops,
// which is how the untraced run uses them.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

// lane is one goroutine's span buffer. Spans past laneCapacity are still
// timed, so the tracing cost stays the same, but only counted.
type lane struct {
	t       *tracer
	base    int64
	n       int64
	spans   []span
	dropped int64
}

const laneCapacity = 1 << 16

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a fresh span buffer for one goroutine.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, base: int64(len(t.lanes)+1) << 40, spans: make([]span, 0, laneCapacity)}
	t.lanes = append(t.lanes, l)
	return l
}

// now reads the lane's clock: nanoseconds since the tracer started.
func (l *lane) now() int64 {
	if l == nil {
		return 0
	}
	return time.Since(l.t.epoch).Nanoseconds()
}

// record closes a span that started at start (a value from now) and returns
// its id, so later spans can name it as their parent.
func (l *lane) record(name string, parent, op, start int64) int64 {
	if l == nil {
		return 0
	}
	end := time.Since(l.t.epoch).Nanoseconds()
	l.n++
	id := l.base | l.n
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: end})
	} else {
		l.dropped++
	}
	return id
}

// spanSummary aggregates the recorded spans of one name. Self time is the
// span's duration minus the part of it that its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
	MeanUs  float64 `json:"mean_us"`
}

func (t *tracer) all() ([]span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	var dropped int64
	for _, l := range t.lanes {
		out = append(out, l.spans...)
		dropped += l.dropped
	}
	return out, dropped
}

func summarize(spans []span) []spanSummary {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	childNs := make([]int64, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			childNs[p] += s.End - s.Start
		}
	}
	agg := map[string]*spanSummary{}
	for i, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			agg[s.Name] = a
		}
		d := float64(s.End-s.Start) / 1e3
		a.Count++
		a.TotalUs += d
		a.SelfUs += d - float64(childNs[i])/1e3
	}
	out := make([]spanSummary, 0, len(agg))
	for _, a := range agg {
		a.MeanUs = a.TotalUs / float64(a.Count)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps every recorded span plus the per-name summary as one JSON
// file. Call it only after every lane's goroutine has finished.
func (t *tracer) write(path string) error {
	spans, dropped := t.all()
	data, err := json.Marshal(struct {
		Spans   []span        `json:"spans"`
		Dropped int64         `json:"dropped"`
		Summary []spanSummary `json:"summary"`
	}{spans, dropped, summarize(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
