package collect

import (
	"fmt"
	"io"
	"time"
)

// Step is one expect-script action: wait for Expect to appear in the
// stream (if non-empty), then send Send (if non-empty).
type Step struct {
	Expect string
	Send   string
	// Capture names the output consumed while waiting; captured text is
	// returned keyed by this name. Empty means discard.
	Capture string
}

// Script is an ordered list of steps — Mantra's collection mechanism, as
// the paper describes it: "a set of expect scripts, which it launches at
// frequent intervals to collect the latest monitoring data".
type Script []Step

// LoginScript builds the standard login-and-dump script for a router:
// authenticate, disable paging, run each command, and log out. Each
// prompt-wait captures the output of the command sent before it, so one
// step both harvests the previous dump and issues the next command.
func LoginScript(password, prompt string, commands ...string) Script {
	var s Script
	if password != "" {
		s = append(s, Step{Expect: "Password: ", Send: password})
	}
	s = append(s, Step{Expect: prompt, Send: "terminal length 0"})
	prev := ""
	for _, cmd := range commands {
		s = append(s, Step{Expect: prompt, Send: cmd, Capture: prev})
		prev = cmd
	}
	s = append(s, Step{Expect: prompt, Send: "exit", Capture: prev})
	return s
}

// RunScript drives rw through the script and returns the captured
// sections. The timeout applies per expect step, measured on the wall
// clock; use RunScriptClock to inject a time base.
func RunScript(rw io.ReadWriter, script Script, timeout time.Duration) (map[string]string, error) {
	return RunScriptClock(rw, script, timeout, time.Now) //mantralint:allow wallclock live expect-script seam; RunScriptClock is the injected path
}

// RunScriptClock is RunScript with an injected clock for the per-step
// expect deadlines.
func RunScriptClock(rw io.ReadWriter, script Script, timeout time.Duration, now func() time.Time) (map[string]string, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	s := &Session{conn: sessionStream(rw), timeout: timeout, now: now}
	defer s.release()
	captures := make(map[string]string)
	for i, step := range script {
		if step.Expect != "" {
			out, err := s.readUntil(step.Expect)
			if err != nil {
				return captures, fmt.Errorf("collect: script step %d: %w", i, err)
			}
			if step.Capture != "" {
				// LoginScript names each capture after the command that
				// produced it, so the echo of that command is stripped the
				// same way Session.Run does.
				captures[step.Capture] = string(stripEcho(out, step.Capture, step.Expect))
			}
		}
		if step.Send != "" {
			if err := s.send(step.Send); err != nil {
				return captures, fmt.Errorf("collect: script step %d: %w", i, err)
			}
		}
	}
	return captures, nil
}

// sessionStream adapts an io.ReadWriter to the session's closer
// requirement. Streams with native read deadlines (net.Conn, net.Pipe
// ends) keep them; all others must NOT claim deadline support, so the
// session arms its watchdog and a blocked Read can be severed by closing
// the underlying stream.
func sessionStream(rw io.ReadWriter) io.ReadWriteCloser {
	if _, ok := rw.(deadliner); ok {
		return deadlineStream{rw}
	}
	return plainStream{rw}
}

// deadlineStream wraps a stream that supports read deadlines.
type deadlineStream struct{ io.ReadWriter }

// Close implements io.Closer as a no-op; the caller owns the stream.
func (deadlineStream) Close() error { return nil }

// SetReadDeadline forwards to the underlying stream.
func (d deadlineStream) SetReadDeadline(t time.Time) error {
	return d.ReadWriter.(deadliner).SetReadDeadline(t)
}

// plainStream wraps a deadline-less stream; the watchdog's Close call
// forwards to the underlying stream when it is closable, which is the
// only way to unblock a stuck Read on such transports.
type plainStream struct{ io.ReadWriter }

// Close forwards to the underlying stream when possible.
func (p plainStream) Close() error {
	if c, ok := p.ReadWriter.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
