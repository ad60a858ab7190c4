package collect_test

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/tables"
)

// structural is the check the monitoring cycle collects under: the table
// scanner's structural checks reject a capture, a row error does not.
func structural(prompt string) func([]collect.Dump) error {
	return func(dumps []collect.Dump) error {
		_, _, defect := tables.ScanDumps(prompt, dumps)
		return defect
	}
}

// dialerFunc adapts a function to the Dialer interface for scripted
// failure sequences.
type dialerFunc func() (io.ReadWriteCloser, error)

func (f dialerFunc) Dial() (io.ReadWriteCloser, error) { return f() }

// blockingConn is the watchdog regression fixture: a connection that never
// produces data, never errors on its own, and — crucially — has no
// SetReadDeadline. Reads block until Close.
type blockingConn struct {
	closed chan struct{}
	once   sync.Once
}

func newBlockingConn() *blockingConn { return &blockingConn{closed: make(chan struct{})} }

func (c *blockingConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, io.ErrClosedPipe
}

func (c *blockingConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *blockingConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestReadUntilWatchdog is the regression test for the collector hang:
// a transport without native read deadlines used to block readUntil
// forever when the peer went silent. The watchdog must close the
// connection and surface ErrTimeout within the session timeout.
func TestReadUntilWatchdog(t *testing.T) {
	conn := newBlockingConn()
	tgt := collect.Target{
		Name:     "stuck",
		Dialer:   dialerFunc(func() (io.ReadWriteCloser, error) { return conn, nil }),
		Password: "pw",
		Prompt:   "stuck> ",
		Timeout:  200 * time.Millisecond,
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := collect.Login(tgt)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("login against a silent peer succeeded")
		}
		if !errors.Is(err, collect.ErrLogin) {
			t.Errorf("err = %v, want ErrLogin", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("watchdog too slow: %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("collector hung: watchdog never fired")
	}
}

// crlfRouter is a session handler speaking DOS-style line endings: command
// echoes arrive as "cmd\r\n" and the prompt carries a stray trailing "\r",
// as some real terminal servers emit.
type crlfRouter struct{}

func (crlfRouter) HandleSession(rw io.ReadWriter) error {
	w := bufio.NewWriter(rw)
	scan := bufio.NewScanner(rw)
	for {
		if _, err := w.WriteString("crlf> \r"); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if !scan.Scan() {
			return scan.Err()
		}
		cmd := strings.TrimSpace(scan.Text())
		if cmd == "exit" {
			return nil
		}
		w.WriteString(cmd + "\r\n")
		w.WriteString("uptime is 1:00:00\r\n")
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

func TestRunStripsCRLFEchoAndPrompt(t *testing.T) {
	tgt := collect.Target{
		Name:    "crlf",
		Dialer:  collect.PipeDialer{Router: crlfRouter{}},
		Prompt:  "crlf> ",
		Timeout: 2 * time.Second,
	}
	s, err := collect.Login(tgt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Run("show version")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "show version") {
		t.Errorf("CRLF command echo not stripped: %q", out)
	}
	if strings.Contains(out, "crlf> ") {
		t.Errorf("prompt with trailing CR not stripped: %q", out)
	}
	if !strings.Contains(out, "uptime is 1:00:00") {
		t.Errorf("body lost: %q", out)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := collect.Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
	if a, b := p.Backoff("fixw", 1), p.Backoff("fixw", 1); a != b {
		t.Errorf("backoff not deterministic: %v vs %v", a, b)
	}
	if a, b := p.Backoff("fixw", 1), p.Backoff("ucsb", 1); a == b {
		t.Errorf("jitter does not desynchronize targets: both %v", a)
	}
	// Attempt n doubles the base, capped at MaxDelay, jittered into
	// [0.5, 1.0) of the raw delay.
	for attempt, raw := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		9: 2 * time.Second, // capped
	} {
		d := p.Backoff("fixw", attempt)
		if d < raw/2 || d >= raw {
			t.Errorf("attempt %d backoff %v outside [%v, %v)", attempt, d, raw/2, raw)
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	t0 := time.Unix(0, 0).UTC()
	b := collect.NewBreaker(2, time.Minute)
	if b.State() != collect.BreakerClosed || !b.Allow(t0) {
		t.Fatal("new breaker not closed")
	}
	b.Failure(t0)
	if b.State() != collect.BreakerClosed {
		t.Error("opened below threshold")
	}
	b.Failure(t0)
	if b.State() != collect.BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if b.Allow(t0.Add(30 * time.Second)) {
		t.Error("allowed during cooldown")
	}
	if !b.Allow(t0.Add(time.Minute)) {
		t.Fatal("half-open probe not admitted after cooldown")
	}
	if b.State() != collect.BreakerHalfOpen {
		t.Errorf("state = %v, want half-open", b.State())
	}
	// A failed probe re-opens immediately, regardless of threshold.
	b.Failure(t0.Add(time.Minute))
	if b.State() != collect.BreakerOpen {
		t.Error("failed probe did not re-open")
	}
	if !b.Allow(t0.Add(2 * time.Minute)) {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if b.State() != collect.BreakerClosed || b.Consecutive() != 0 {
		t.Error("successful probe did not close and reset")
	}
}

func TestCollectorRetriesTransientFailure(t *testing.T) {
	n := testNetwork(t)
	tgt := target(n, "fixw", "pw")
	calls := 0
	real := tgt.Dialer
	tgt.Dialer = dialerFunc(func() (io.ReadWriteCloser, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient dial failure")
		}
		return real.Dial()
	})
	var slept []time.Duration
	c := collect.NewCollector(collect.Policy{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	var dumps []collect.Dump
	res := c.Collect(tgt, collect.StandardCommands, n.Now(), func(d []collect.Dump) error {
		dumps = d
		return structural(tgt.Prompt)(d)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Status != collect.StatusRetried || res.Attempts != 2 {
		t.Errorf("result = %s after %d attempts, want retried after 2", res.Status, res.Attempts)
	}
	if len(dumps) != len(collect.StandardCommands) {
		t.Errorf("dumps = %d", len(dumps))
	}
	if len(slept) != 1 || slept[0] < 25*time.Millisecond || slept[0] >= 50*time.Millisecond {
		t.Errorf("backoff sleeps = %v", slept)
	}
	h, ok := c.TargetHealth("fixw")
	if !ok || h.Breaker != collect.BreakerClosed || h.ConsecutiveFailures != 0 || h.LastStatus != collect.StatusRetried {
		t.Errorf("health = %+v", h)
	}
}

func TestCollectorBreakerLifecycle(t *testing.T) {
	dead := collect.Target{
		Name:    "dead",
		Dialer:  dialerFunc(func() (io.ReadWriteCloser, error) { return nil, errors.New("down") }),
		Prompt:  "dead> ",
		Timeout: time.Second,
	}
	c := collect.NewCollector(collect.Policy{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		Sleep:            func(time.Duration) {},
	})
	t0 := time.Unix(1000, 0).UTC()
	// Two failed cycles open the breaker.
	for i := 0; i < 2; i++ {
		res := c.Collect(dead, nil, t0.Add(time.Duration(i)*time.Second), structural(dead.Prompt))
		if res.Status != collect.StatusDegraded || res.Attempts != 1 {
			t.Fatalf("cycle %d = %+v", i, res)
		}
	}
	// Within the cooldown the target is skipped without an attempt.
	res := c.Collect(dead, nil, t0.Add(10*time.Second), structural(dead.Prompt))
	if res.Status != collect.StatusBreakerOpen || res.Attempts != 0 {
		t.Fatalf("cooldown cycle = %+v", res)
	}
	if !errors.Is(res.Err, collect.ErrBreakerOpen) {
		t.Errorf("err = %v, want ErrBreakerOpen", res.Err)
	}
	// After the cooldown a half-open probe runs — and fails, re-opening.
	res = c.Collect(dead, nil, t0.Add(2*time.Minute), structural(dead.Prompt))
	if res.Status != collect.StatusDegraded || res.Attempts != 1 {
		t.Fatalf("probe cycle = %+v", res)
	}
	res = c.Collect(dead, nil, t0.Add(2*time.Minute+time.Second), structural(dead.Prompt))
	if res.Status != collect.StatusBreakerOpen {
		t.Fatalf("failed probe did not re-open: %+v", res)
	}
	// Heal the target; the next probe closes the breaker.
	n := testNetwork(t)
	healed := target(n, "fixw", "pw")
	healed.Name = "dead"
	res = c.Collect(healed, collect.StandardCommands, t0.Add(4*time.Minute), structural(healed.Prompt))
	if res.Status != collect.StatusOK || res.Breaker != collect.BreakerClosed {
		t.Fatalf("healed probe = %+v", res)
	}
	h, _ := c.TargetHealth("dead")
	if h.ConsecutiveFailures != 0 || h.TotalFailures != 3 || h.TotalCycles != 6 {
		t.Errorf("health after recovery = %+v", h)
	}
}

// scriptedRouter answers every command with a fixed payload, password-free,
// under the prompt "s> ".
type scriptedRouter struct{ out string }

func (r scriptedRouter) HandleSession(rw io.ReadWriter) error {
	w := bufio.NewWriter(rw)
	scan := bufio.NewScanner(rw)
	for {
		if _, err := w.WriteString("s> "); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if !scan.Scan() {
			return scan.Err()
		}
		if strings.TrimSpace(scan.Text()) == "exit" {
			return nil
		}
		w.WriteString(r.out)
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

func TestCollectorRejectsInvalidDumps(t *testing.T) {
	// The session protocol succeeds, but the dump is cut mid-line: only
	// the structural checks can catch this. Every attempt is checked and
	// retried, and the cycle ends degraded with the defect as its error.
	tgt := collect.Target{
		Name:    "s",
		Dialer:  collect.PipeDialer{Router: scriptedRouter{out: "IP Multicast Forwarding Table - 5 entries\ncols\nrow1"}},
		Prompt:  "s> ",
		Timeout: time.Second,
	}
	c := collect.NewCollector(collect.Policy{MaxAttempts: 2, Sleep: func(time.Duration) {}})
	checked := 0
	res := c.Collect(tgt, []string{"show ip mroute"}, time.Unix(0, 0), func(dumps []collect.Dump) error {
		checked++
		return structural(tgt.Prompt)(dumps)
	})
	if res.Status != collect.StatusDegraded || res.Attempts != 2 || checked != 2 {
		t.Fatalf("result = %+v after %d checks", res, checked)
	}
	if !errors.Is(res.Err, collect.ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", res.Err)
	}
	if h, _ := c.TargetHealth("s"); h.TotalFailures != 1 || h.LastStatus != collect.StatusDegraded || !strings.Contains(h.LastError, "cut mid-line") {
		t.Errorf("health = %+v", h)
	}
}

func TestCollectorRecordFailure(t *testing.T) {
	c := collect.NewCollector(collect.Policy{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	t0 := time.Unix(0, 0).UTC()
	c.RecordFailure("fixw", t0, errors.New("snapshot parse error"))
	c.RecordFailure("fixw", t0.Add(time.Second), errors.New("snapshot parse error"))
	h, ok := c.TargetHealth("fixw")
	if !ok || h.Breaker != collect.BreakerOpen || h.ConsecutiveFailures != 2 {
		t.Errorf("out-of-band failures did not open breaker: %+v", h)
	}
	if len(c.Health()) != 1 {
		t.Errorf("health = %+v", c.Health())
	}
}

func TestCollectorResetTarget(t *testing.T) {
	// A target removed and re-registered must not inherit its previous
	// life's open breaker: ResetTarget drops the ledger entirely, and
	// the stale state must not resurface through CarryState either.
	c := collect.NewCollector(collect.Policy{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	t0 := time.Unix(0, 0).UTC()
	c.RecordFailure("fixw", t0, errors.New("down"))
	c.RecordFailure("fixw", t0.Add(time.Second), errors.New("down"))
	if h, _ := c.TargetHealth("fixw"); h.Breaker != collect.BreakerOpen {
		t.Fatalf("setup: breaker = %s, want open", h.Breaker)
	}
	c.ResetTarget("fixw")
	if _, ok := c.TargetHealth("fixw"); ok {
		t.Fatal("health ledger survived ResetTarget")
	}
	if len(c.Health()) != 0 {
		t.Errorf("health = %+v, want empty", c.Health())
	}
	// Re-registration starts a fresh breaker window: one failure must
	// not re-open it (threshold is 2).
	c.RecordFailure("fixw", t0.Add(2*time.Second), errors.New("down"))
	h, ok := c.TargetHealth("fixw")
	if !ok || h.Breaker != collect.BreakerClosed || h.ConsecutiveFailures != 1 {
		t.Errorf("post-reset health = %+v, want closed breaker with 1 failure", h)
	}
	// CarryState after a reset must not resurrect the dropped target
	// from an old collector snapshot taken before the reset.
	old := collect.NewCollector(collect.Policy{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	old.RecordFailure("ghost", t0, errors.New("down"))
	old.RecordFailure("ghost", t0.Add(time.Second), errors.New("down"))
	c.CarryState(old)
	c.ResetTarget("ghost")
	if _, ok := c.TargetHealth("ghost"); ok {
		t.Error("ghost survived reset after CarryState")
	}
}
