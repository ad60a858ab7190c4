package collect_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/workload"
)

func testNetwork(t testing.TB) *netsim.Network {
	t.Helper()
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	wl := workload.New(workload.DefaultConfig(), inet.Topo)
	n := netsim.New(inet, wl, netsim.DefaultConfig())
	if err := n.Track("fixw", "ucsb-gw"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Step()
	}
	return n
}

func target(n *netsim.Network, name, password string) collect.Target {
	r := n.Router(name)
	r.Password = password
	return collect.Target{
		Name:     name,
		Dialer:   collect.PipeDialer{Router: r},
		Password: password,
		Prompt:   name + "> ",
		Timeout:  5 * time.Second,
	}
}

func TestLoginAndRun(t *testing.T) {
	n := testNetwork(t)
	s, err := collect.Login(target(n, "fixw", "pw"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Run("show ip dvmrp route")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DVMRP Routing Table") {
		t.Errorf("missing table header")
	}
	if strings.Contains(out, "fixw> ") {
		t.Error("prompt not stripped")
	}
	// The capture is the dump body alone: no command echo at its head,
	// no stray carriage return where the prompt was.
	if strings.HasPrefix(strings.TrimLeft(out, "\r\n"), "show ip dvmrp route") {
		t.Errorf("command echo leaked into the dump: %q", out[:40])
	}
	if strings.HasSuffix(out, "\r") {
		t.Errorf("trailing carriage return left in the dump: %q", out)
	}
	// Second command on the same session.
	out, err = s.Run("show ip mroute")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Forwarding Table") {
		t.Error("second command failed")
	}
}

func TestLoginWrongPassword(t *testing.T) {
	n := testNetwork(t)
	tgt := target(n, "fixw", "right")
	tgt.Password = "wrong"
	tgt.Timeout = 500 * time.Millisecond
	if _, err := collect.Login(tgt); err == nil {
		t.Fatal("login succeeded with wrong password")
	}
}

func TestLoginNoPassword(t *testing.T) {
	n := testNetwork(t)
	tgt := target(n, "fixw", "")
	s, err := collect.Login(tgt)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestCollectAll(t *testing.T) {
	n := testNetwork(t)
	now := n.Now()
	dumps, err := collect.CollectAll(target(n, "fixw", "pw"), collect.StandardCommands, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != len(collect.StandardCommands) {
		t.Fatalf("dumps = %d", len(dumps))
	}
	for i, d := range dumps {
		if d.Target != "fixw" || d.Command != collect.StandardCommands[i] || !d.At.Equal(now) {
			t.Errorf("dump %d metadata wrong: %+v", i, d)
		}
		if d.Raw == "" {
			t.Errorf("dump %d empty", i)
		}
	}
}

func TestCollectOverTCP(t *testing.T) {
	n := testNetwork(t)
	r := n.Router("ucsb-gw")
	r.Password = "s3cret"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go r.ServeTCP(l)
	tgt := collect.Target{
		Name:     "ucsb",
		Dialer:   collect.TCPDialer{Addr: l.Addr().String()},
		Password: "s3cret",
		Prompt:   "ucsb-gw> ",
		Timeout:  5 * time.Second,
	}
	dumps, err := collect.CollectAll(tgt, []string{"show ip dvmrp route"}, n.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || !strings.Contains(dumps[0].Raw, "DVMRP Routing Table") {
		t.Errorf("TCP collection failed: %+v", dumps)
	}
}

func TestTCPDialerUnreachable(t *testing.T) {
	d := collect.TCPDialer{Addr: "127.0.0.1:1", Timeout: 200 * time.Millisecond}
	if _, err := d.Dial(); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestPipeDialerNilRouter(t *testing.T) {
	if _, err := (collect.PipeDialer{}).Dial(); err == nil {
		t.Error("nil router accepted")
	}
}

func TestCollectErrorWrapsLogin(t *testing.T) {
	n := testNetwork(t)
	tgt := target(n, "fixw", "good")
	tgt.Password = "bad"
	tgt.Timeout = 300 * time.Millisecond
	_, err := collect.CollectAll(tgt, collect.StandardCommands, n.Now())
	if err == nil {
		t.Fatal("expected login error")
	}
	if !errors.Is(err, collect.ErrLogin) && !errors.Is(err, collect.ErrTimeout) {
		t.Errorf("unexpected error type: %v", err)
	}
}

func TestPreprocess(t *testing.T) {
	raw := "  Header   Line  \n\n\n  a    b\tc  \n% oops\nlast"
	lines := collect.Preprocess(raw)
	want := []string{"Header Line", "a b c", "last"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
	if collect.Preprocess("") != nil {
		t.Error("empty input should give nil")
	}
}

// silentDialer hands out one end of a pipe whose far side never speaks, so
// only the expect deadline can end the login attempt.
type silentDialer struct{}

func (silentDialer) Dial() (io.ReadWriteCloser, error) {
	client, _ := net.Pipe()
	return client, nil
}

func TestLoginTimeoutUsesInjectedClock(t *testing.T) {
	// Regression for the mantralint wallclock findings in readUntil: the
	// expect deadline is anchored on Target.Clock, not time.Now. With a
	// one-hour timeout and a fake clock that jumps two hours, login must
	// fail immediately — if the wall clock were still consulted this test
	// would hang for an hour.
	base := time.Unix(1_000_000, 0)
	calls := 0
	tgt := collect.Target{
		Name:    "silent",
		Dialer:  silentDialer{},
		Prompt:  "silent> ",
		Timeout: time.Hour,
		Clock: func() time.Time {
			calls++
			if calls == 1 {
				return base
			}
			return base.Add(2 * time.Hour)
		},
	}
	_, err := collect.Login(tgt)
	if !errors.Is(err, collect.ErrLogin) {
		t.Fatalf("Login error = %v, want ErrLogin", err)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Login error = %v, want timeout", err)
	}
	if calls < 2 {
		t.Fatalf("injected clock consulted %d times, want >= 2", calls)
	}
}

// wedgedRouter authenticates normally, then stops reading the stream
// entirely — the shape of a peer stuck mid-dump. On an unbuffered
// transport every subsequent client write would block forever without a
// write deadline.
type wedgedRouter struct{ done chan struct{} }

func (w wedgedRouter) HandleSession(rw io.ReadWriter) error {
	if _, err := io.WriteString(rw, "Password: "); err != nil {
		return err
	}
	buf := make([]byte, 64)
	if _, err := rw.Read(buf); err != nil {
		return err
	}
	if _, err := io.WriteString(rw, "wedged> "); err != nil {
		return err
	}
	<-w.done
	return nil
}

func TestSendTimesOutAgainstWedgedPeer(t *testing.T) {
	// Regression: Session writes carry the same hard timeout as reads.
	// net.Pipe writes block until the peer reads; a command sent to a
	// session whose peer stopped reading (including the "exit" Close
	// sends after a read timeout) used to deadlock both ends in Write.
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	tgt := collect.Target{
		Name:     "wedged",
		Dialer:   collect.PipeDialer{Router: wedgedRouter{done: done}},
		Password: "pw",
		Prompt:   "wedged> ",
		Timeout:  100 * time.Millisecond,
	}
	s, err := collect.Login(tgt)
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	defer s.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := s.Run("show ip mroute")
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Run against a wedged peer succeeded, want timeout error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run against a wedged peer blocked past the session timeout")
	}
}

// chunkedRouter answers every command with the same output, one Write —
// so, over a pipe, one Read at the collector — per chunk.
type chunkedRouter struct{ chunks []string }

func (c chunkedRouter) HandleSession(rw io.ReadWriter) error {
	if _, err := io.WriteString(rw, "r> "); err != nil {
		return err
	}
	line := make([]byte, 256)
	for {
		n, err := rw.Read(line)
		if err != nil || strings.TrimSpace(string(line[:n])) == "exit" {
			return err
		}
		for _, chunk := range c.chunks {
			if _, err := io.WriteString(rw, chunk); err != nil {
				return err
			}
		}
	}
}

// TestPromptSplitAcrossReads: readUntil searches only the bytes it has
// not searched yet, so a prompt that arrives in two reads — or one byte
// at a time — must still be found, and a partial look-alike inside the
// body must not end the dump early.
func TestPromptSplitAcrossReads(t *testing.T) {
	const body = "line one r>\nline two r>x r >\n"
	for _, chunks := range [][]string{
		{body + "r> "},
		{body + "r", "> "},
		{body, "r>", " "},
		{"line one r", ">\nline two r", ">x r >\n", "r", ">", " "},
		strings.Split(body+"r> ", ""),
	} {
		tgt := collect.Target{Name: "r", Dialer: collect.PipeDialer{Router: chunkedRouter{chunks}}, Prompt: "r> ", Timeout: 2 * time.Second}
		dumps, err := collect.CollectAll(tgt, []string{"show a", "show b"}, time.Time{})
		if err != nil {
			t.Fatalf("chunks %q: %v", chunks, err)
		}
		for _, d := range dumps {
			if d.Raw != body {
				t.Errorf("chunks %q: %s = %q, want %q", chunks, d.Command, d.Raw, body)
			}
		}
	}
}

// TestDumpsDoNotAliasReadBuffer: the read buffer is pooled and the next
// session overwrites it, so every dump handed out must be a copy. Collect
// one router, then another through the same pool, then compare the first
// router's dumps with what it renders.
func TestDumpsDoNotAliasReadBuffer(t *testing.T) {
	n := testNetwork(t)
	first, err := collect.CollectAll(target(n, "fixw", ""), collect.StandardCommands, n.Now())
	if err != nil {
		t.Fatal(err)
	}
	second, err := collect.CollectAll(target(n, "ucsb-gw", ""), collect.StandardCommands, n.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		dumps []collect.Dump
	}{{"fixw", first}, {"ucsb-gw", second}} {
		for _, d := range c.dumps {
			if want := n.Router(c.name).Execute(d.Command); d.Raw != want {
				t.Errorf("%s %q changed after the buffer was reused:\n got %q\nwant %q", c.name, d.Command, d.Raw, want)
			}
		}
	}
}
