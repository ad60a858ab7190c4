package mantra_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	mantra "repro"
	"repro/internal/core/collect"
	"repro/internal/testfault"
)

var updateTablesGolden = flag.Bool("update-tables-golden", false, "rewrite testdata/tables.golden from this run")

// failingDialer is a canned router that refuses to dial while *down.
type failingDialer struct {
	cannedDialer
	down *bool
}

func (d failingDialer) Dial() (io.ReadWriteCloser, error) {
	if *d.down {
		return nil, errors.New("router down")
	}
	return d.cannedDialer.Dial()
}

// TestSummaryTableBodies pins the bytes of the / index and of every
// /tables body, sorted and searched as well as plain, before and over
// four cycles of an aggregating Monitor on two canned routers whose
// dumps come from a stepped simulated network. In the third cycle
// ucsb-gw fails to dial:
// its tables keep the last snapshot it delivered, while fixw's and the
// aggregate's move on. Run with -update-tables-golden to record the
// file again.
func TestSummaryTableBodies(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	n := gateNetwork(t)
	names := []string{"fixw", "ucsb-gw"}
	down := false
	m := mantra.New()
	m.SetCollectPolicy(collect.Policy{MaxAttempts: 1, Sleep: func(time.Duration) {}})
	m.EnableAggregation()
	routers := make(map[string]cannedDialer)
	for _, name := range names {
		routers[name] = newCanned(name+"> ", nil)
		var d collect.Dialer = routers[name]
		if name == "ucsb-gw" {
			d = failingDialer{routers[name], &down}
		}
		m.AddTarget(collect.Target{Name: name, Dialer: d, Prompt: name + "> ", Timeout: 5 * time.Second})
	}
	h := m.Handler()
	get := func(url string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	var got bytes.Buffer
	fmt.Fprintf(&got, "== before the first cycle GET /\n%s\n", get("/"))
	var ucsbBusiest []byte
	for c := 1; c <= 4; c++ {
		n.Step()
		for _, name := range names {
			dumps, err := collect.CollectAll(gateTarget(n, name), collect.StandardCommands, n.Now())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dumps {
				routers[name].out[d.Command] = d.Raw + name + "> "
			}
		}
		down = c == 3
		if _, err := m.RunCycle(n.Now()); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		idx := get("/")
		var index struct{ Tables []string }
		if err := json.Unmarshal(idx, &index); err != nil || len(index.Tables) != 9 {
			t.Fatalf("cycle %d: index lists %d tables (%v): %s", c, len(index.Tables), err, idx)
		}
		urls := []string{"/"}
		for _, name := range index.Tables {
			urls = append(urls, "/tables/"+name)
		}
		urls = append(urls, "/tables/busiest-fixw?sort=kbps&desc=1", "/tables/busiest-aggregate?sort=kbps&desc=1",
			"/tables/busiest-ucsb-gw?sort=kbps&desc=1", "/tables/senders-aggregate?q=128.111")
		for _, url := range urls {
			fmt.Fprintf(&got, "== cycle %d GET %s\n%s\n", c, url, get(url))
		}
		busiest := get("/tables/busiest-ucsb-gw")
		if c == 3 && !bytes.Equal(busiest, ucsbBusiest) {
			t.Errorf("cycle 3: a failed target's busiest table moved:\n%s\nwas\n%s", busiest, ucsbBusiest)
		}
		ucsbBusiest = busiest
	}

	path := filepath.Join("testdata", "tables.golden")
	if *updateTablesGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("bodies differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bodies differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
