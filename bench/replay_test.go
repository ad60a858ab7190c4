package main

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/router"
)

// TestReplayFidelity holds the replay dialer to the transport it stands
// in for: for the same simulated routers and cycle, collect.CollectAll
// over replayed transcripts and over collect.PipeDialer must return
// byte-identical dumps, and tables.BuildSnapshot equal snapshots.
func TestReplayFidelity(t *testing.T) {
	builds := map[string]func() (*substrate, error){
		"dvmrp":  func() (*substrate, error) { return buildDVMRPFleet(3, 4, 2) },
		"sparse": func() (*substrate, error) { return buildSparseFleet(3, 6) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			sub, err := build()
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 3; c++ {
				in := sub.next()
				for i, target := range sub.targets {
					d := &replayDialer{target: target}
					d.load(c, in.Sessions[i])
					tgt := collect.Target{Name: target, Dialer: d, Password: cliPassword, Prompt: prompt(target), Timeout: 5 * time.Second}
					replayed, err := collect.CollectAll(tgt, sub.commands, in.At)
					if err != nil {
						t.Fatalf("cycle %d %s: replay: %v", c, target, err)
					}
					tgt.Dialer = collect.PipeDialer{Router: sub.net.Router(target)}
					piped, err := collect.CollectAll(tgt, sub.commands, in.At)
					if err != nil {
						t.Fatalf("cycle %d %s: pipe: %v", c, target, err)
					}
					if !reflect.DeepEqual(replayed, piped) {
						t.Fatalf("cycle %d %s: replayed dumps differ from piped dumps", c, target)
					}
					a, err := tables.BuildSnapshot(replayed)
					if err != nil {
						t.Fatal(err)
					}
					b, err := tables.BuildSnapshot(piped)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("cycle %d %s: snapshots differ", c, target)
					}
					got := declaredCounts(in.Sessions[i][0], sub.commands)
					if want := (tableCounts{Routes: len(a.Routes), Pairs: len(a.Pairs), SAs: len(a.SAs), MBGP: len(a.MBGP)}); got != want {
						t.Fatalf("cycle %d %s: declared counts %+v, parsed %+v", c, target, got, want)
					}
				}
			}
		})
	}
}

// TestReplayFaults replays FaultyRouter-rendered sessions and checks
// that each fault kind fails collection the way the live fault does,
// and that reads come in transport-sized chunks.
func TestReplayFaults(t *testing.T) {
	sub, err := buildDVMRPFleet(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub.net.Step()
	target := sub.targets[0]
	r := sub.net.Router(target)
	tgt := func(tr *transcript) collect.Target {
		d := &replayDialer{target: target}
		d.load(0, []*transcript{tr})
		return collect.Target{Name: target, Dialer: d, Password: cliPassword, Prompt: prompt(target), Timeout: time.Second}
	}
	for kind := faultTruncate; kind < faultKinds; kind++ {
		fr := router.NewFaultyRouter(r, faultProfile(kind), newPRNG(int64(kind)))
		tr := record(fr, cliPassword, sub.commands)
		dumps, err := collect.CollectAll(tgt(tr), sub.commands, sub.net.Now())
		if err == nil {
			err = collect.ValidateDumps(prompt(target), dumps)
		}
		if err == nil {
			t.Errorf("fault kind %d: collection and validation both succeeded", kind)
		}
		if kind == faultRejectLogin && !errors.Is(err, collect.ErrLogin) {
			t.Errorf("rejected login: got %v, want ErrLogin", err)
		}
	}

	clean := record(r, cliPassword, sub.commands)
	d := &replayDialer{target: target}
	d.load(0, []*transcript{clean})
	conn, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Dial(); err == nil {
		t.Error("second dial in a cycle scripted for one session succeeded")
	}
	buf := make([]byte, 1<<20)
	for _, line := range clean.lines {
		for {
			n, err := conn.Read(buf)
			if n > replayChunk {
				t.Fatalf("read of %d bytes exceeds the %d-byte transport chunk", n, replayChunk)
			}
			if err != nil {
				if !errors.Is(err, errReplayStall) {
					t.Fatalf("read: %v", err)
				}
				break
			}
		}
		if _, err := io.WriteString(conn, line+"\n"); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
	}
	if _, err := io.WriteString(conn, "show version\n"); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write after the router closed: %v, want io.ErrClosedPipe", err)
	}
}
