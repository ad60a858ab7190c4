package mantra_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	mantra "repro"
	"repro/internal/core/output"
	"repro/internal/core/shard"
	"repro/internal/experiments"
)

// figureBytes renders a figure's CSV and ASCII chart into one buffer.
func figureBytes(t *testing.T, fig experiments.FigureResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fig.RenderASCII(&buf, 110, 16); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pinnedFigureDigests are the sha256 of each usage figure's CSV and
// ASCII chart (figureBytes) at the quick scale, recorded while the
// figures still read an in-memory copy of every series beside the
// store. They now read the store alone.
var pinnedFigureDigests = map[string]string{
	"fig3": "776584c75b120c3bf892ef73a74cb5d08547b4405955da1f27650149fc3a4b00",
	"fig4": "396d0f8a450b134fea8746386feb15600f4bb80fcc9c4d8ae48e3db2aa0caf61",
	"fig5": "2ddee64d9ed13e72925b947d641e4ff20cc546e8a5804db46a98549498230376",
	"fig6": "83ac30053bbaa1678b98d30fb1680952798e76a8f17f156f8cb1593494d40660",
	"fig7": "665b199267bb4047dc45cf7493db69277d9c48d99fbbfc34dddee75f78282979",
}

// TestFiguresStreamingEquivalence: every usage figure, drawn from the
// series the compressed store streams back, is byte for byte the figure
// pinned above.
func TestFiguresStreamingEquivalence(t *testing.T) {
	r, err := experiments.NewRunner(experiments.UsageConfig(experiments.Quick))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(nil); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []experiments.FigureResult{r.Figure3(), r.Figure4(), r.Figure5(), r.Figure6(), r.Figure7()} {
		sum := sha256.Sum256(figureBytes(t, fig))
		if got := hex.EncodeToString(sum[:]); got != pinnedFigureDigests[fig.ID] {
			t.Errorf("%s: digest %s, pinned %s", fig.ID, got, pinnedFigureDigests[fig.ID])
		}
	}
}

// TestQueryEndpointShardInvariance pins the /query contract at the HTTP
// layer: the same scripted incident timeline served at 1, 4 and 16
// shards answers every query shape with byte-identical JSON. The split
// per-shard execution plus Assemble must be indistinguishable from one
// store holding everything.
func TestQueryEndpointShardInvariance(t *testing.T) {
	queries := []string{
		"/query?metric=routes&op=range",
		"/query?metric=routes&op=range&tier=10",
		"/query?metric=sessions&op=avg",
		"/query?metric=sessions&op=rate&target=fixw",
		"/query?metric=routes&op=topk&k=2&by=max",
		"/query?metric=participants&op=count",
		"/series/fixw/routes?limit=5",
	}
	run := func(shards int) map[string][]byte {
		n, s := shardIncidentFleet(t, func(c *shard.Config) { c.Shards = shards })
		for i := 0; i < 12; i++ {
			n.Step()
			if _, err := s.RunCycle(n.Now()); err != nil {
				t.Fatal(err)
			}
		}
		srv := output.NewServer(s.FleetProc())
		srv.SetSeries(s.SeriesView)
		srv.SetQuery(s.QueryFleet)
		hs := httptest.NewServer(srv)
		defer hs.Close()
		out := map[string][]byte{}
		for _, q := range queries {
			resp, err := hs.Client().Get(hs.URL + q)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("%d shards: GET %s: %s: %s", shards, q, resp.Status, body)
			}
			out[q] = body
		}
		return out
	}

	base := run(1)
	for _, q := range queries {
		if len(base[q]) == 0 {
			t.Fatalf("1 shard: empty response for %s", q)
		}
	}
	for _, shards := range []int{4, 16} {
		got := run(shards)
		for _, q := range queries {
			if !bytes.Equal(base[q], got[q]) {
				t.Errorf("%d shards: %s diverged from 1 shard:\n1:  %s\n%d: %s",
					shards, q, base[q], shards, got[q])
			}
		}
	}
}

// storeQueries captures the store answers an operator would compare
// across a crash.
func storeQueries(t *testing.T, m *mantra.Monitor) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, q := range []mantra.Query{
		{Metric: "routes", Op: "range"},
		{Metric: "routes", Op: "range", Tier: 10},
		{Metric: "sessions", Op: "avg"},
		{Metric: "sessions", Op: "topk", K: 1, By: "max"},
		{Metric: "participants", Op: "rate", Targets: []string{"fixw"}},
	} {
		res, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[string(q.Metric)+"/"+string(q.Op)] = b
	}
	return out
}

// TestArchiveStoreCrashRecovery extends the crash test to the series
// store: after a crash with a corrupted disk mirror, the recovered
// monitor answers every query byte-identically to the pre-crash
// monitor, and the mirror self-heals.
func TestArchiveStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	n, m1 := newMonitoredNetwork(t)
	if _, err := m1.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		n.Step()
		if _, err := m1.RunCycle(n.Now()); err != nil {
			t.Fatal(err)
		}
	}
	want := storeQueries(t, m1)
	// Crash: no CloseArchive. Corrupt the block mirror's tail — the torn
	// write the next process must repair.
	segs, err := filepath.Glob(filepath.Join(dir, "tsdb", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 5 {
			if err := os.Truncate(seg, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}
	}

	m2 := mantra.New()
	rewire(m2, n, "fixw", "ucsb-r1")
	if _, err := m2.EnableArchive(mantra.ArchiveConfig{Dir: dir, CheckpointEvery: 3, Resume: true}); err != nil {
		t.Fatal(err)
	}
	if st := m2.ArchiveStatus(); st.MirrorError != "" {
		t.Fatalf("mirror error after recovery: %s", st.MirrorError)
	}
	got := storeQueries(t, m2)
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Errorf("query %s diverged across crash:\npre:  %s\npost: %s", name, w, got[name])
		}
	}

	// The recovered monitor keeps collecting and the store keeps growing.
	n.Step()
	if _, err := m2.RunCycle(n.Now()); err != nil {
		t.Fatal(err)
	}
	res, err := m2.Query(mantra.Query{Metric: "routes", Op: "count", Targets: []string{"fixw"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets[0].Agg == nil || res.Targets[0].Agg.Count != 8 {
		t.Fatalf("post-resume count = %+v, want 8", res.Targets[0].Agg)
	}
	if err := m2.CloseArchive(n.Now()); err != nil {
		t.Fatal(err)
	}
}
