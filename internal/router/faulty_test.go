package router_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/router"
)

// fixedRand is a deterministic Rand for forcing a specific fault draw.
type fixedRand struct{ f float64 }

func (r fixedRand) Float64() float64 { return r.f }
func (r fixedRand) Intn(n int) int   { return n / 2 }

// faultyTarget wires a collection target to a fault-wrapped fixw.
func faultyTarget(f *router.FaultyRouter, timeout time.Duration) collect.Target {
	return collect.Target{
		Name:     "fixw",
		Dialer:   collect.PipeDialer{Router: f},
		Password: "pw",
		Prompt:   "fixw> ",
		Timeout:  timeout,
	}
}

func newFaulty(t *testing.T, profile router.FaultProfile) *router.FaultyRouter {
	t.Helper()
	n := testNetwork(t)
	r := n.Router("fixw")
	r.Password = "pw"
	return router.NewFaultyRouter(r, profile, fixedRand{f: 0.5})
}

func TestFaultRefuseConn(t *testing.T) {
	f := newFaulty(t, router.FaultProfile{RefuseConn: 1})
	if _, err := collect.Login(faultyTarget(f, time.Second), new(collect.ReadBuffer)); err == nil {
		t.Fatal("login succeeded against a refusing router")
	}
	if got := f.Injected()["refuse"]; got != 1 {
		t.Errorf("injected counts = %v", f.Injected())
	}
}

func TestFaultRejectLogin(t *testing.T) {
	f := newFaulty(t, router.FaultProfile{RejectLogin: 1})
	_, err := collect.Login(faultyTarget(f, time.Second), new(collect.ReadBuffer))
	if !errors.Is(err, collect.ErrLogin) {
		t.Fatalf("err = %v, want ErrLogin", err)
	}
	if got := f.Injected()["reject-login"]; got != 1 {
		t.Errorf("injected counts = %v", f.Injected())
	}
}

func TestFaultHangBoundedByTimeout(t *testing.T) {
	f := newFaulty(t, router.FaultProfile{Hang: 1, TruncateAfter: 60})
	start := time.Now()
	_, err := collect.CollectAll(faultyTarget(f, 150*time.Millisecond), collect.StandardCommands, time.Unix(0, 0))
	if err == nil {
		t.Fatal("collection succeeded against a hung router")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hung session not bounded by the step timeout: %v", elapsed)
	}
	if got := f.Injected()["hang"]; got != 1 {
		t.Errorf("injected counts = %v", f.Injected())
	}
}

func TestFaultDropSeversSession(t *testing.T) {
	f := newFaulty(t, router.FaultProfile{Drop: 1, TruncateAfter: 60})
	_, err := collect.CollectAll(faultyTarget(f, time.Second), collect.StandardCommands, time.Unix(0, 0))
	if err == nil {
		t.Fatal("collection succeeded against a dropping router")
	}
	if got := f.Injected()["drop"]; got != 1 {
		t.Errorf("injected counts = %v", f.Injected())
	}
}

func TestFaultTruncateCaughtByValidation(t *testing.T) {
	f := newFaulty(t, router.FaultProfile{Truncate: 1})
	tgt := faultyTarget(f, time.Second)
	dumps, err := collect.CollectAll(tgt, []string{"show ip dvmrp route"}, time.Unix(0, 0))
	if err != nil {
		t.Fatalf("truncation should leave the session protocol intact: %v", err)
	}
	err = collect.ValidateDumps(tgt.Prompt, dumps)
	if !errors.Is(err, collect.ErrTruncated) && !errors.Is(err, collect.ErrGarbled) {
		t.Errorf("validation missed the truncated dump: %v", err)
	}
}

func TestFaultGarbleCaughtByValidation(t *testing.T) {
	f := newFaulty(t, router.FaultProfile{Garble: 1, GarblePerLine: 0.9})
	tgt := faultyTarget(f, time.Second)
	dumps, err := collect.CollectAll(tgt, []string{"show ip dvmrp route"}, time.Unix(0, 0))
	if err != nil {
		t.Fatalf("garbling should leave the session protocol intact: %v", err)
	}
	if err := collect.ValidateDumps(tgt.Prompt, dumps); !errors.Is(err, collect.ErrGarbled) {
		t.Errorf("validation missed the garbled dump: %v", err)
	}
}

func TestFaultProfileCleanPassthrough(t *testing.T) {
	f := newFaulty(t, router.FaultProfile{})
	tgt := faultyTarget(f, time.Second)
	dumps, err := collect.CollectAll(tgt, collect.StandardCommands, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := collect.ValidateDumps(tgt.Prompt, dumps); err != nil {
		t.Errorf("clean session rejected: %v", err)
	}
	if len(f.Injected()) != 0 {
		t.Errorf("clean profile injected faults: %v", f.Injected())
	}
	if !strings.Contains(dumps[0].Raw, "DVMRP Routing Table") {
		t.Errorf("dump lost its table: %q", dumps[0].Raw[:40])
	}
}

func TestNetsimFaultyRouterHook(t *testing.T) {
	n := testNetwork(t)
	if f := n.FaultyRouter("fixw", router.FaultProfile{RefuseConn: 1}); f == nil {
		t.Fatal("FaultyRouter returned nil for a tracked router")
	}
	if f := n.FaultyRouter("no-such-router", router.FaultProfile{}); f != nil {
		t.Error("FaultyRouter invented a router")
	}
}
