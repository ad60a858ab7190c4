package output

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core/process"
)

// Server exposes Mantra's results over HTTP: the web-based presentation
// layer (tables and graph data) of the paper's Output Interface. Every
// endpoint answers from the last published cycle, and no handler takes
// a lock: by default the server reads the processor's published View,
// the / index and /tables/* read the tables Publish last swapped in
// with the View they were built with, and each Set* source returns a
// view its owner published. The Set* sources are wiring: install them
// before the server serves.
type Server struct {
	mux  *http.ServeMux
	proc *process.Processor

	// published is what Publish last swapped in, nil until then: the
	// / index and /tables/* answer from it.
	published atomic.Pointer[view]

	health  func() any
	archive func() any
	stats   func() any
	shards  func() any
	anoms   func() []process.Anomaly
	series  func(target string, m process.Metric) *process.Series
	targets func() []string
	query   QueryFunc
}

// view is one published cycle as the server serves it: the processor's
// view and the summary tables built in the same cycle.
type view struct {
	proc   *process.View
	tables map[string]*Table
}

// NewServer returns a server over a processor's published views.
// Summary tables are published with Publish.
func NewServer(p *process.Processor) *Server {
	s := &Server{
		mux:  http.NewServeMux(),
		proc: p,
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/series/", s.handleSeries)
	s.mux.HandleFunc("/graph/", s.handleGraph)
	s.mux.HandleFunc("/tables/", s.handleTable)
	s.mux.HandleFunc("/anomalies", s.handleAnomalies)
	s.mux.HandleFunc("/health", s.handleHealth)
	s.mux.HandleFunc("/archive", s.handleArchive)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/shards", s.handleShards)
	s.mux.HandleFunc("/query", s.handleQuery)
	return s
}

// Publish swaps in, whole, the summary tables and the processor view
// they were built with, so the / index never pairs one cycle's targets
// with another's tables. Neither may be modified afterwards.
func (s *Server) Publish(pv *process.View, tables map[string]*Table) {
	s.published.Store(&view{proc: pv, tables: tables})
}

// view returns what the / index and /tables/* answer from: the last
// Publish, or before one the processor's view and no tables.
func (s *Server) view() (*process.View, map[string]*Table) {
	if v := s.published.Load(); v != nil {
		return v.proc, v.tables
	}
	return s.proc.View(), nil
}

// SetHealth installs the health snapshot source served at /health — the
// monitor wires its per-target collection health view here.
func (s *Server) SetHealth(fn func() any) { s.health = fn }

// SetArchive installs the archive stats source served at /archive — the
// monitor wires its durable-archive counters and recovery report here.
// A source returning nil answers 404, as no source does.
func (s *Server) SetArchive(fn func() any) { s.archive = fn }

// SetStats installs the cycle-engine instrumentation source served at
// /stats — per-stage, per-target timings and queue-depth counters.
func (s *Server) SetStats(fn func() any) { s.stats = fn }

// SetShards installs the shard-supervisor status source served at
// /shards — per-shard liveness, assignment and handoff counters when
// collection runs sharded.
func (s *Server) SetShards(fn func() any) { s.shards = fn }

// SetAnomalies overrides the anomaly source backing /anomalies. By
// default the server reads its processor's published log; sharded
// deployments install the merged fleet log here, where per-shard IDs
// have been re-keyed into one fleet sequence.
func (s *Server) SetAnomalies(fn func() []process.Anomaly) { s.anoms = fn }

// SetSeries overrides the series source backing /series and /graph. By
// default the server reads its processor's published view; sharded
// deployments install a resolver that routes each target to its owning
// shard's view.
func (s *Server) SetSeries(fn func(target string, m process.Metric) *process.Series) {
	s.series = fn
}

// SetTargets overrides the / index's target list, by default the
// processor view's; sharded deployments install the fleet's listing.
func (s *Server) SetTargets(fn func() []string) { s.targets = fn }

// lookupSeries resolves a target's series through the installed
// override, falling back to the processor view.
func (s *Server) lookupSeries(pv *process.View, target string, m process.Metric) *process.Series {
	if s.series != nil {
		return s.series(target, m)
	}
	return pv.Series(target, m)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	type index struct {
		Targets []string `json:"targets"`
		Metrics []string `json:"metrics"`
		Tables  []string `json:"tables"`
	}
	pv, tables := s.view()
	var idx index
	if s.targets != nil {
		idx.Targets = s.targets()
	} else {
		idx.Targets = pv.Targets()
	}
	for _, m := range process.AllMetrics {
		idx.Metrics = append(idx.Metrics, string(m))
	}
	for name := range tables {
		idx.Tables = append(idx.Tables, name)
	}
	sort.Strings(idx.Tables)
	writeJSON(w, idx)
}

// handleSeries serves /series/<target>/<metric> as JSON x-y data: the
// whole series, or with any of ?from=, ?to= (RFC3339) or ?limit=
// present, the points the query engine reads for that range, in the
// identical shape.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/series/"), "/")
	if len(parts) != 2 {
		http.Error(w, "use /series/<target>/<metric>", http.StatusBadRequest)
		return
	}
	pv := s.proc.View()
	if s.rangedSeries(w, r, pv, parts[0], process.Metric(parts[1])) {
		return
	}
	series := s.lookupSeries(pv, parts[0], process.Metric(parts[1]))
	if series == nil {
		http.NotFound(w, r)
		return
	}
	type point struct {
		T time.Time `json:"t"`
		V float64   `json:"v"`
		// Gap marks a cycle in which collection failed; V is meaningless.
		Gap bool `json:"gap,omitempty"`
	}
	pts := make([]point, 0, series.Len()+len(series.Gaps))
	for i := range series.Values {
		pts = append(pts, point{T: series.Times[i], V: series.Values[i]})
	}
	for _, g := range series.Gaps {
		pts = append(pts, point{T: g, Gap: true})
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].T.Before(pts[j].T) })
	writeJSON(w, pts)
}

// serveSource answers with what an installed source returns as JSON,
// 404 when none is installed or it returns nil.
func serveSource(w http.ResponseWriter, r *http.Request, fn func() any) {
	var v any
	if fn != nil {
		v = fn()
	}
	if v == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, v)
}

// handleHealth serves the per-target collection health view as JSON.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	serveSource(w, r, s.health)
}

// handleArchive serves the durable-archive stats view as JSON.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	serveSource(w, r, s.archive)
}

// handleStats serves the cycle engine's pipeline instrumentation —
// per-stage timings, queue depth, per-target counters — as JSON.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	serveSource(w, r, s.stats)
}

// handleGraph serves /graph/<target>/<metric> as an ASCII chart. From
// the processor view it draws the store view's blocks one at a time, so
// a request allocates the same at any history length; through a
// SetSeries source it draws the copy that source returns.
func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/graph/"), "/")
	if len(parts) != 2 {
		http.Error(w, "use /graph/<target>/<metric>", http.StatusBadRequest)
		return
	}
	g := NewGraph(parts[0]+": "+parts[1], parts[1])
	pv := s.proc.View()
	switch {
	case s.series != nil:
		series := s.series(parts[0], process.Metric(parts[1]))
		if series == nil {
			http.NotFound(w, r)
			return
		}
		g.Overlay(parts[0], series)
	case pv.Store().Len(parts[0], parts[1]) == 0:
		http.NotFound(w, r)
		return
	default:
		g.overlayStored(parts[0], pv.Store(), parts[0], parts[1])
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = g.RenderASCII(w, 100, 20)
}

// handleTable serves /tables/<name> as plain text, honoring ?sort=col and
// ?q=substr query operations.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/tables/")
	_, tables := s.view()
	t, ok := tables[name]
	if !ok {
		http.NotFound(w, r)
		return
	}
	view := t
	if q := r.URL.Query().Get("q"); q != "" {
		view = view.Search(q)
	}
	if col := r.URL.Query().Get("sort"); col != "" {
		cp := &Table{Name: view.Name, Columns: view.Columns, Rows: append([][]Cell(nil), view.Rows...)}
		asc := r.URL.Query().Get("desc") == ""
		if err := cp.Sort(col, asc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		view = cp
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = view.Render(w)
}

// handleAnomalies serves the anomaly log as a JSON array in detection
// order. Query filters: ?open=1 keeps only unresolved episodes,
// ?target=<name> and ?kind=<kind> filter by field, and ?cross=1 switches
// to the cross-target incident view (kinds open at two or more targets
// at once).
func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	src := s.anoms
	pv := s.proc.View()
	q := r.URL.Query()
	if q.Get("cross") != "" {
		var ct []process.CrossTargetIncident
		if src != nil {
			ct = process.CrossTargetOf(src())
		} else {
			ct = pv.CrossTarget()
		}
		if ct == nil {
			ct = []process.CrossTargetIncident{}
		}
		writeJSON(w, ct)
		return
	}
	var an []process.Anomaly
	if src != nil {
		an = src()
	} else {
		an = pv.Anomalies()
	}
	openOnly := q.Get("open") != ""
	target := q.Get("target")
	kind := q.Get("kind")
	out := make([]process.Anomaly, 0, len(an))
	for _, a := range an {
		if openOnly && a.Resolved {
			continue
		}
		if target != "" && a.Target != target {
			continue
		}
		if kind != "" && a.Kind != kind {
			continue
		}
		out = append(out, a)
	}
	writeJSON(w, out)
}

// handleShards serves the shard-supervisor status view as JSON.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	serveSource(w, r, s.shards)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
