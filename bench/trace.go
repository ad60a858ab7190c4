// Spans of the traced run. The harness records them around its own
// calls into each layer — it owns those seams; spans inside the program
// are a later change. Spans stay in memory and are written once, at
// exit.
package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call. Parent 0 means a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Target string        `json:"target,omitempty"`
	Cycle  int           `json:"cycle"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// OfWhich marks a standalone re-measurement of work that also runs
	// inside its parent (Preprocess inside BuildSnapshot, the store
	// appends inside Ingest). It is reported on its own and never
	// subtracted from the parent or added to a sum.
	OfWhich bool `json:"of_which,omitempty"`
}

// tracer records the spans of one traced run from the driver goroutine.
// A nil tracer records nothing, which is the untraced run.
type tracer struct {
	spans []span
}

func (t *tracer) begin(name, target string, cycle, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Target: target, Cycle: cycle})
	id := len(t.spans)
	t.spans[id-1].Start = now()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = now()
}

// ofWhich flags span id as a standalone re-measurement.
func (t *tracer) ofWhich(id int) {
	if t != nil && id != 0 {
		t.spans[id-1].OfWhich = true
	}
}

// adopt appends in-situ session spans the replay dialers recorded from
// the collection workers, parented to their cycle span.
func (t *tracer) adopt(sessions []sessionSpan, cycleSpan map[int]int) {
	for _, s := range sessions {
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: cycleSpan[s.Cycle], Name: "collect.session_insitu",
			Target: s.Target, Cycle: s.Cycle, Start: s.Start, End: s.End,
		})
	}
}

// selfByCycle sums, per cycle, the self time in milliseconds of every
// span called name that keep accepts: duration minus the children that
// ran inside it.
func (t *tracer) selfByCycle(cycles int, keep func(*span) bool) map[string][]float64 {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && !s.OfWhich {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Cycle < 0 || s.Cycle >= cycles || !keep(s) {
			continue
		}
		per := out[s.Name]
		if per == nil {
			per = make([]float64, cycles)
			out[s.Name] = per
		}
		per[s.Cycle] += ms(s.End - s.Start - child[s.ID])
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
