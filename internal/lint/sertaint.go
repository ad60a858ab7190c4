package lint

import (
	"fmt"
	"sort"
	"strings"
)

// serTaintAnalyzer is the interprocedural determinism-taint check: a
// value whose content depends on nondeterministic order — accumulated
// across a map range, a select arm, or goroutine completion, or read
// from an unseamed clock/rand — must not reach a serialization sink
// (the WAL frame writer, checkpoint blobs, JSON encoders, HTTP
// responses). Each function's def-use graph is extracted at summary
// time (taint.go); here the graphs are stitched along static call edges
// — argument to parameter, return to call result, sends to shared
// channel nodes — and every source is flood-filled to see whether a
// sink is reachable, however many functions away.
//
// This complements the per-function mapiter/floatsum checks and
// replaces neither. It sees what they cannot: a map-range value
// laundered through a helper's return value, or handed across a
// channel, still taints the bytes the paper's recovery protocol
// requires to be deterministic. It is silent where they speak: it
// reports only a flow that ends in a recognized sink (json/gob
// encoders, an HTTP response, a //mantra:sink function), so run alone
// over testdata/mapiter, mapiterscope and floatsum it reports none of
// their seven want lines — an unsorted slice that is only returned, a
// fmt.Fprintf into a *bytes.Buffer, a hash fold, a float sum handed to
// the caller. Those are flagged where the order enters, by the lexical
// checks only.
//
// Module sinks are declared with //mantra:sink serialization on the
// function whose arguments become bytes; sort.* calls sanitize, and the
// wallclock allow comments double as declared clock seams. The analysis
// is module-wide and runs over the per-package fact summaries.
var serTaintAnalyzer = &Analyzer{
	Name: "sertaint",
	Doc:  "nondeterministically ordered value (map range, select arm, goroutine, unseamed time/rand) flows into a serialization sink",
}

// taintSink is one sink node's report data.
type taintSink struct {
	desc string
	pos  Pos
}

func serTaintFindings(idx *sumIndex, add func(Finding)) {
	adj := make(map[string][]string)
	sinks := make(map[string]taintSink)
	edge := func(from, to string) { adj[from] = append(adj[from], to) }
	qual := func(fn, node string) string {
		if strings.HasPrefix(node, "chan ") {
			return node // channel nodes are shared module-wide
		}
		return fn + "|" + node
	}

	for _, name := range idx.names {
		t := idx.funcs[name].Taint
		if t == nil {
			continue
		}
		// usedArgs[k] is the set of argument indices with inbound flow —
		// the only ones worth cross-linking.
		usedArgs := make(map[int][]int)
		for _, e := range t.Edges {
			edge(qual(name, e.From), qual(name, e.To))
			var k, j int
			if n, _ := fmt.Sscanf(e.To, "c%d.a%d", &k, &j); n == 2 {
				usedArgs[k] = append(usedArgs[k], j)
			}
		}
		for _, call := range t.Calls {
			res := qual(name, fmt.Sprintf("c%d.r", call.Index))
			callee := idx.funcs[call.Callee]
			switch {
			case callee == nil:
				// Outside the module (stdlib): conservative pass-through,
				// arguments to result.
				for _, j := range usedArgs[call.Index] {
					edge(qual(name, fmt.Sprintf("c%d.a%d", call.Index, j)), res)
				}
			case callee.Taint != nil:
				for _, j := range usedArgs[call.Index] {
					p := j
					if p >= callee.Taint.Params {
						p = callee.Taint.Params - 1 // variadic tail
					}
					if p >= 0 {
						edge(qual(name, fmt.Sprintf("c%d.a%d", call.Index, j)),
							qual(call.Callee, fmt.Sprintf("p%d", p)))
					}
				}
				edge(qual(call.Callee, "ret"), res)
			}
			// A module function with nil Taint has no internal flow at all:
			// arguments die inside it and nothing nondeterministic returns.

			if call.Sink != "" {
				for _, j := range usedArgs[call.Index] {
					if j >= call.DataFrom {
						sinks[qual(name, fmt.Sprintf("c%d.a%d", call.Index, j))] =
							taintSink{desc: call.Sink, pos: call.Pos}
					}
				}
			}
			if callee != nil && callee.Sink {
				for _, j := range usedArgs[call.Index] {
					sinks[qual(name, fmt.Sprintf("c%d.a%d", call.Index, j))] =
						taintSink{desc: callee.Short + " (declared //mantra:sink serialization)", pos: call.Pos}
				}
			}
		}
	}
	for from := range adj {
		sort.Strings(adj[from])
	}

	for _, name := range idx.names {
		t := idx.funcs[name].Taint
		if t == nil {
			continue
		}
		for i, src := range t.Sources {
			witness, ok := reachSink(qual(name, fmt.Sprintf("s%d", i)), adj, sinks)
			if !ok {
				continue
			}
			add(Finding{
				Pos:   posOf(src.Pos),
				Check: "sertaint",
				Message: fmt.Sprintf("%s flows into %s (%s:%d); serialized bytes must not depend on nondeterministic order — sort, seam, or restructure before serializing",
					src.Desc, witness.desc, pathBase(witness.pos.File), witness.pos.Line),
			})
		}
	}
}

// reachSink flood-fills from a source node and returns the minimal sink
// witness reached — minimal by (description, file base, line, column).
func reachSink(start string, adj map[string][]string, sinks map[string]taintSink) (taintSink, bool) {
	seen := map[string]bool{start: true}
	queue := []string{start}
	var best taintSink
	found := false
	better := func(a, b taintSink) bool {
		if a.desc != b.desc {
			return a.desc < b.desc
		}
		af, bf := pathBase(a.pos.File), pathBase(b.pos.File)
		if af != bf {
			return af < bf
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.pos.Col < b.pos.Col
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if s, isSink := sinks[cur]; isSink && (!found || better(s, best)) {
			best, found = s, true
		}
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return best, found
}

// pathBase trims a (slash or native) path to its last element for
// finding messages that reference the other half of a flow.
func pathBase(p string) string {
	p = strings.ReplaceAll(p, "\\", "/")
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}
