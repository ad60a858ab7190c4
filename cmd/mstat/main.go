// Command mstat is a one-shot query tool in the spirit of Merit's mstat:
// it logs into one router CLI, runs the given show commands (or the
// standard dump set), and prints the raw tables.
//
//	mstat -addr 127.0.0.1:2601 -password mantra -prompt "fixw> " \
//	      "show ip dvmrp route" "show ip mroute"
//
// With -daemon it is instead a thin wrapper over a running monitor's
// /query endpoint — the compressed long-horizon store — building the
// query from flags and printing the JSON answer verbatim:
//
//	mstat -daemon http://127.0.0.1:8080 -metric sa_cache_size -op avg
//	mstat -daemon http://127.0.0.1:8080 -metric mbgp_routes -op topk -k 3 -by max
//	mstat -daemon http://127.0.0.1:8080 -metric routes -target fixw \
//	      -from 2001-01-01T00:00:00Z -to 2001-01-08T00:00:00Z -tier 10
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/core/collect"
)

type targetFlags []string

func (t *targetFlags) String() string { return strings.Join(*t, ",") }
func (t *targetFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:2601", "router CLI address")
	password := flag.String("password", "mantra", "CLI password")
	prompt := flag.String("prompt", "", "CLI prompt (required, e.g. \"fixw> \")")
	timeout := flag.Duration("timeout", 10*time.Second, "per-command timeout")
	daemon := flag.String("daemon", "", "monitor base URL; query its store over /query instead of scraping a router")
	metric := flag.String("metric", "", "metric to query (with -daemon)")
	op := flag.String("op", "range", "query op: range, min, max, avg, sum, count, rate, topk (with -daemon)")
	var targets targetFlags
	flag.Var(&targets, "target", "target to query, repeatable; empty = all (with -daemon)")
	from := flag.String("from", "", "RFC3339 lower bound, inclusive (with -daemon)")
	to := flag.String("to", "", "RFC3339 upper bound, inclusive (with -daemon)")
	k := flag.Int("k", 0, "top-k size for -op topk (with -daemon)")
	by := flag.String("by", "", "top-k ranking aggregate: min, max, avg, sum, count, rate, last (with -daemon)")
	tier := flag.Int("tier", 0, "range resolution: 0 raw, 10 or 100 cycles per point (with -daemon)")
	flag.Parse()

	if *daemon != "" {
		queryDaemon(*daemon, *metric, *op, targets, *from, *to, *k, *by, *tier)
		return
	}

	if *prompt == "" {
		log.Fatal("mstat: -prompt is required (e.g. \"fixw> \")")
	}
	commands := flag.Args()
	if len(commands) == 0 {
		commands = collect.StandardCommands
	}

	tgt := collect.Target{
		Name:     "mstat",
		Dialer:   collect.TCPDialer{Addr: *addr},
		Password: *password,
		Prompt:   *prompt,
		Timeout:  *timeout,
	}
	dumps, err := collect.CollectAll(tgt, commands, time.Now().UTC()) // composition root: one-shot live scrape stamped with real time
	if err != nil {
		log.Fatalf("mstat: %v", err)
	}
	for _, d := range dumps {
		fmt.Printf("### %s\n%s\n", d.Command, d.Raw)
	}
}

// queryDaemon builds the /query URL from the flags, issues the GET, and
// streams the daemon's JSON answer to stdout unmodified — the bytes are
// the daemon's deterministic query result, so this tool adds nothing.
func queryDaemon(base, metric, op string, targets []string, from, to string, k int, by string, tier int) {
	if metric == "" {
		log.Fatal("mstat: -metric is required with -daemon")
	}
	v := url.Values{}
	v.Set("metric", metric)
	v.Set("op", op)
	for _, t := range targets {
		v.Add("target", t)
	}
	if from != "" {
		v.Set("from", from)
	}
	if to != "" {
		v.Set("to", to)
	}
	if k > 0 {
		v.Set("k", fmt.Sprint(k))
	}
	if by != "" {
		v.Set("by", by)
	}
	if tier != 0 {
		v.Set("tier", fmt.Sprint(tier))
	}
	u := strings.TrimSuffix(base, "/") + "/query?" + v.Encode()
	resp, err := http.Get(u)
	if err != nil {
		log.Fatalf("mstat: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("mstat: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		log.Fatalf("mstat: %v", err)
	}
}
