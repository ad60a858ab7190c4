package output

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/process"
	"repro/internal/core/tables"
	"repro/internal/sim"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("sessions", "group", "density", "kbps", "seen")
	rows := []struct {
		g string
		d float64
		k float64
	}{
		{"224.2.0.1", 3, 64}, {"224.2.0.2", 1, 0.5}, {"224.9.0.9", 12, 512},
	}
	for i, r := range rows {
		if err := tb.AddRow(Str(r.g), Num(r.d), Num(r.k), Time(sim.Epoch.Add(time.Duration(i)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestTableAddRowValidates(t *testing.T) {
	tb := NewTable("t", "a", "b")
	if err := tb.AddRow(Str("only-one")); err == nil {
		t.Error("short row accepted")
	}
}

func TestTableSort(t *testing.T) {
	tb := sampleTable(t)
	if err := tb.Sort("kbps", false); err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][0].S != "224.9.0.9" {
		t.Errorf("desc sort wrong: %v", tb.Rows[0][0])
	}
	if err := tb.Sort("group", true); err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][0].S != "224.2.0.1" {
		t.Errorf("asc sort wrong: %v", tb.Rows[0][0])
	}
	if err := tb.Sort("nope", true); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestTableSearchAndFilter(t *testing.T) {
	tb := sampleTable(t)
	hit := tb.Search("224.9")
	if len(hit.Rows) != 1 || hit.Rows[0][0].S != "224.9.0.9" {
		t.Errorf("search = %v", hit.Rows)
	}
	if got := tb.Search("ZZZ"); len(got.Rows) != 0 {
		t.Error("search false positive")
	}
	dense := tb.Filter(func(row []Cell) bool { return row[1].F > 2 })
	if len(dense.Rows) != 2 {
		t.Errorf("filter = %d rows", len(dense.Rows))
	}
}

func TestTableColumnAlgebra(t *testing.T) {
	tb := sampleTable(t)
	tb.AddComputedColumn("unicast_kbps", func(row []Cell) float64 {
		return row[1].F * row[2].F
	})
	if len(tb.Columns) != 5 {
		t.Fatal("column not added")
	}
	if tb.Rows[2][4].F != 12*512 {
		t.Errorf("computed = %v", tb.Rows[2][4])
	}
	sum, err := tb.SumColumn("density")
	if err != nil || sum != 16 {
		t.Errorf("sum = %f err=%v", sum, err)
	}
	if _, err := tb.SumColumn("ghost"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestTableTimeConversion(t *testing.T) {
	tb := sampleTable(t)
	loc := time.FixedZone("PST", -8*3600)
	if err := tb.ConvertTimes("seen", loc); err != nil {
		t.Fatal(err)
	}
	if got := tb.Rows[0][3].T.Location().String(); got != "PST" {
		t.Errorf("location = %q", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := sampleTable(t)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sessions (3 rows)") || !strings.Contains(out, "224.9.0.9") {
		t.Errorf("render:\n%s", out)
	}
}

func seriesOf(vals ...float64) *process.Series {
	s := &process.Series{}
	for i, v := range vals {
		s.Append(sim.Epoch.Add(time.Duration(i)*time.Hour), v)
	}
	return s
}

func TestGraphRenderASCII(t *testing.T) {
	g := NewGraph("routes at FIXW", "routes")
	g.Overlay("fixw", seriesOf(100, 120, 400, 110, 105))
	var sb strings.Builder
	if err := g.RenderASCII(&sb, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "routes at FIXW") || !strings.Contains(out, "*") {
		t.Errorf("render:\n%s", out)
	}
	if !strings.Contains(out, "400") || !strings.Contains(out, "100") {
		t.Errorf("axis labels missing:\n%s", out)
	}
}

func TestGraphOverlayAndLegend(t *testing.T) {
	g := NewGraph("cmp", "n")
	g.Overlay("a", seriesOf(1, 2, 3))
	g.Overlay("b", seriesOf(3, 2, 1))
	if g.SeriesCount() != 2 {
		t.Fatal("overlay lost")
	}
	var sb strings.Builder
	_ = g.RenderASCII(&sb, 30, 8)
	if !strings.Contains(sb.String(), "*=a") || !strings.Contains(sb.String(), "+=b") {
		t.Errorf("legend missing:\n%s", sb.String())
	}
}

func TestGraphZoom(t *testing.T) {
	g := NewGraph("z", "v")
	g.Overlay("s", seriesOf(1, 2, 3, 4, 5, 6))
	g.SetXRange(sim.Epoch.Add(2*time.Hour), sim.Epoch.Add(4*time.Hour))
	xs, ys := g.Points(0)
	if len(xs) != 3 || ys[0] != 3 || ys[2] != 5 {
		t.Errorf("zoomed points = %v %v", xs, ys)
	}
	g.SetYRange(0, 100)
	var sb strings.Builder
	_ = g.RenderASCII(&sb, 30, 8)
	if !strings.Contains(sb.String(), "100") {
		t.Errorf("y zoom not applied:\n%s", sb.String())
	}
	g.ResetZoom()
	xs, _ = g.Points(0)
	if len(xs) != 6 {
		t.Errorf("reset failed: %d points", len(xs))
	}
	if xs2, ys2 := g.Points(9); xs2 != nil || ys2 != nil {
		t.Error("out-of-range series index should be nil")
	}
}

func TestGraphEmpty(t *testing.T) {
	g := NewGraph("empty", "v")
	var sb strings.Builder
	if err := g.RenderASCII(&sb, 30, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty graph: %s", sb.String())
	}
}

func ingestSample(p *process.Processor) {
	sn := &tables.Snapshot{
		Target: "fixw",
		At:     sim.Epoch,
		Pairs: tables.PairTable{
			{Source: addr.MustParse("1.1.1.1"), Group: addr.MustParse("224.1.1.1"), RateKbps: 64, Flags: "D"},
		},
		Routes: tables.RouteTable{
			{Prefix: addr.MustParsePrefix("10.0.0.0/8"), Metric: 1},
		},
	}
	p.Ingest(sn)
}

func TestHTTPEndpoints(t *testing.T) {
	p := process.New()
	ingestSample(p)
	s := NewServer(p)
	s.RegisterTable(sampleTable(t))

	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "fixw") {
		t.Errorf("index: %d %s", code, body)
	}
	code, body := get("/series/fixw/sessions")
	if code != 200 {
		t.Fatalf("series: %d", code)
	}
	var pts []map[string]any
	if err := json.Unmarshal([]byte(body), &pts); err != nil || len(pts) != 1 {
		t.Errorf("series json: %v %s", err, body)
	}
	if code, _ := get("/series/fixw/nope"); code != 404 {
		t.Error("unknown metric should 404")
	}
	if code, body := get("/graph/fixw/sessions"); code != 200 || !strings.Contains(body, "sessions") {
		t.Errorf("graph: %d %s", code, body)
	}
	if code, body := get("/tables/sessions?sort=kbps&desc=1"); code != 200 || !strings.Contains(body, "224.9.0.9") {
		t.Errorf("table: %d %s", code, body)
	}
	if code, body := get("/tables/sessions?q=224.2.0.2"); code != 200 || strings.Contains(body, "224.9.0.9") {
		t.Errorf("table search: %d %s", code, body)
	}
	if code, _ := get("/tables/sessions?sort=ghost"); code != 400 {
		t.Error("bad sort column should 400")
	}
	if code, _ := get("/tables/none"); code != 404 {
		t.Error("unknown table should 404")
	}
	if code, body := get("/anomalies"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Errorf("anomalies: %d %s", code, body)
	}
	if code, _ := get("/bogus"); code != 404 {
		t.Error("bogus path should 404")
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := sampleTable(t)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "group,density,kbps,seen" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "224.2.0.1,3,64,") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestTableWriteJSON(t *testing.T) {
	tb := sampleTable(t)
	var sb strings.Builder
	if err := tb.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name    string   `json:"name"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "sessions" || len(decoded.Columns) != 4 || len(decoded.Rows) != 3 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if v, ok := decoded.Rows[0][1].(float64); !ok || v != 3 {
		t.Errorf("numeric cell decoded as %T %v", decoded.Rows[0][1], decoded.Rows[0][1])
	}
}

// spikeAnomalies seeds a processor with route-injection episodes: open
// on targets a and b, plus a resolved one on a.
func spikeAnomalies(p *process.Processor) {
	at := sim.Epoch
	ingest := func(target string, routes int) {
		var rt tables.RouteTable
		for i := 0; i < routes; i++ {
			rt = append(rt, tables.RouteEntry{Prefix: addr.PrefixFrom(addr.IP(uint32(i)<<12), 24), Metric: 1})
		}
		p.Ingest(&tables.Snapshot{Target: target, At: at, Routes: rt})
		at = at.Add(30 * time.Minute)
	}
	for i := 0; i < 4; i++ {
		ingest("a", 500)
		ingest("b", 500)
	}
	ingest("a", 1400) // opens, then resolves below
	ingest("a", 500)
	for i := 0; i < 8; i++ {
		ingest("a", 500)
	}
	ingest("a", 1400) // open on a
	ingest("b", 1400) // open on b
}

func TestAnomalyEndpointFilters(t *testing.T) {
	p := process.New()
	spikeAnomalies(p)
	s := NewServer(p)
	srv := httptest.NewServer(s)
	defer srv.Close()

	fetch := func(path string, v any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var all []process.Anomaly
	fetch("/anomalies", &all)
	if len(all) != 3 {
		t.Fatalf("anomalies = %+v", all)
	}
	var open []process.Anomaly
	fetch("/anomalies?open=1", &open)
	if len(open) != 2 {
		t.Fatalf("open = %+v", open)
	}
	var onB []process.Anomaly
	fetch("/anomalies?target=b&kind=route-injection", &onB)
	if len(onB) != 1 || onB[0].Target != "b" {
		t.Fatalf("target filter = %+v", onB)
	}
	var none []process.Anomaly
	fetch("/anomalies?kind=ghost", &none)
	if len(none) != 0 {
		t.Fatalf("kind filter = %+v", none)
	}
	var cross []process.CrossTargetIncident
	fetch("/anomalies?cross=1", &cross)
	if len(cross) != 1 || cross[0].Kind != "route-injection" || len(cross[0].Targets) != 2 {
		t.Fatalf("cross = %+v", cross)
	}
}

// TestGraphStreamsWhatACopyDraws: /graph draws a series straight from
// the store's blocks, and must draw the chart a copy of the series
// (Processor.Series) overlaid on a Graph draws, gaps and sealed blocks
// included.
func TestGraphStreamsWhatACopyDraws(t *testing.T) {
	p := process.New()
	routes := make(tables.RouteTable, 60)
	for i := 0; i < 3*256+17; i++ {
		at := sim.Epoch.Add(time.Duration(i) * 30 * time.Minute)
		if i%41 == 40 {
			p.MarkGap("fixw", at)
			continue
		}
		p.Ingest(&tables.Snapshot{Target: "fixw", At: at, Routes: routes[:10+i*7%50]})
	}
	rec := httptest.NewRecorder()
	NewServer(p).ServeHTTP(rec, httptest.NewRequest("GET", "/graph/fixw/routes", nil))
	g := NewGraph("fixw: routes", "routes")
	g.Overlay("fixw", p.Series("fixw", process.MetricRoutes))
	var want strings.Builder
	if err := g.RenderASCII(&want, 100, 20); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || rec.Body.String() != want.String() {
		t.Errorf("/graph: %d\n%s\nwant\n%s", rec.Code, rec.Body, want.String())
	}
	rec = httptest.NewRecorder()
	NewServer(p).ServeHTTP(rec, httptest.NewRequest("GET", "/graph/fixw/nope", nil))
	if rec.Code != 404 {
		t.Errorf("/graph of an unknown metric: %d, want 404", rec.Code)
	}
}
