package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Name is "<layer>.<call>"; Run groups the
// spans of one operation (an estimate, a campaign, a daemon job, or a
// ladder rung); Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were observed rather than bracketed —
// for example the queue wait and run time a daemon job reports.
func (t *tracer) record(name, run string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Overlapping children (concurrent
// calls) are counted once, and children are clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].a < cs[j].a })
		var covered time.Duration
		cur := s.Start // everything before cur is already counted
		for _, c := range cs {
			a, b := max(c.a, cur), min(c.b, s.End)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceLayers are the layers whose self time the traced run reports; the
// "bench" layer is the benchmark's own harness around each operation.
var traceLayers = []string{"bench", "core", "campaign", "service"}

// finishTrace writes the spans to the build directory and reports the
// self-time share of each layer across the workload's operation spans
// (ladder rungs measure one layer each and are excluded), the span count,
// and the tracing overhead.
func finishTrace(rc *runCtx) error {
	spans := rc.tr.snapshot()
	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Run, "ladder") {
			continue
		}
		byLayer[s.layer()] += self[s.ID]
		total += self[s.ID]
	}
	for _, l := range traceLayers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		rc.set("trace."+l+"_self_frac", share, "1")
	}
	rc.set("trace.spans", float64(len(spans)), "count")
	rc.set("trace.overhead_frac", tracingOverhead(len(spans), total), "1")

	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{rc.workload, rc.seed, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	rc.notef("spans written to %s", path)
	return nil
}

// tracingOverhead estimates the share of the traced operations' wall time
// spent recording spans: the measured cost of one begin/end pair times
// the number of spans, over the traced time.
func tracingOverhead(spans int, traced time.Duration) float64 {
	if traced <= 0 {
		return 0
	}
	const n = 100000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("bench.probe", "probe", 0))
	}
	per := time.Since(start) / n
	return float64(per) * float64(spans) / float64(traced)
}
