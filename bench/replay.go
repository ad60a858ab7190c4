// The replay dialer: a collect.Dialer whose connections serve CLI
// sessions recorded ahead of time, so the monitor can be timed with no
// simulator work — no netsim step, no router rendering its own dumps —
// inside the timed region.
//
// A transcript is recorded by running the real session handler
// (router.Router or router.FaultyRouter) against a scripted client that
// sends exactly the lines collect.CollectAll sends: the password, the
// show commands, "exit". Recording therefore mirrors
// router.handleSessionWith by construction, for clean and faulty
// sessions alike. Replay is a synchronous state machine: no goroutine,
// no pipe, no timer.
package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core/collect"
)

// replayChunk bounds one Read, like the 4096-byte bufio flushes a real
// session handler produces over net.Pipe or TCP.
const replayChunk = 4096

// transcript is one recorded CLI session. segments[i] is what the
// router wrote after receiving lines[:i] and before blocking on the
// next line; a session the router ended early has fewer segments than
// lines+1.
type transcript struct {
	lines    []string
	segments [][]byte
}

// bytes returns the total size of everything the router wrote.
func (t *transcript) bytes() int {
	n := 0
	for _, s := range t.segments {
		n += len(s)
	}
	return n
}

// recorder is the scripted client side of a recording: Read hands the
// session handler one line at a time, Write captures its output into
// the segment that precedes the next line.
type recorder struct {
	t    *transcript
	next int
}

func (r *recorder) Read(p []byte) (int, error) {
	if r.next >= len(r.t.lines) {
		return 0, io.EOF
	}
	line := r.t.lines[r.next] + "\n"
	if len(p) < len(line) {
		return 0, fmt.Errorf("replay: recorder line %q exceeds the handler's read buffer", line)
	}
	r.next++
	r.t.segments = append(r.t.segments, nil)
	return copy(p, line), nil
}

func (r *recorder) Write(p []byte) (int, error) {
	last := len(r.t.segments) - 1
	r.t.segments[last] = append(r.t.segments[last], p...)
	return len(p), nil
}

// record runs h against the scripted client and returns the transcript.
// The handler's error is part of the fault being recorded (a refused
// connection returns one), not a recording failure.
func record(h collect.SessionHandler, password string, commands []string) *transcript {
	t := &transcript{segments: [][]byte{nil}}
	if password != "" {
		t.lines = append(t.lines, password)
	}
	t.lines = append(t.lines, commands...)
	t.lines = append(t.lines, "exit")
	_ = h.HandleSession(&recorder{t: t})
	return t
}

// sessionSpan is one replayed session as the dialer saw it from inside
// the real run: Dial to Close, with the reads and bytes it served.
type sessionSpan struct {
	Target     string
	Cycle      int
	Attempt    int
	Start, End time.Duration
	Reads      int
	Bytes      int
}

// sessionLog collects session spans from concurrently collecting
// workers; nil disables recording (the untraced run).
type sessionLog struct {
	mu           sync.Mutex
	spans        []sessionSpan
	reads, bytes int
}

func (l *sessionLog) add(s sessionSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.reads += s.Reads
	l.bytes += s.Bytes
	l.mu.Unlock()
}

// replayDialer serves one target's recorded sessions. The driver loads
// a cycle's attempts between cycles; the monitor's collection workers
// dial during it.
type replayDialer struct {
	target string
	log    *sessionLog

	mu       sync.Mutex
	cycle    int
	attempts []*transcript
	next     int
}

// load installs the sessions the target serves during cycle, in attempt
// order.
func (d *replayDialer) load(cycle int, attempts []*transcript) {
	d.mu.Lock()
	d.cycle, d.attempts, d.next = cycle, attempts, 0
	d.mu.Unlock()
}

// dialed reports how many sessions were opened since the last load.
func (d *replayDialer) dialed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next
}

// Dial implements collect.Dialer.
func (d *replayDialer) Dial() (io.ReadWriteCloser, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next >= len(d.attempts) {
		return nil, fmt.Errorf("replay: %s dialed %d times in cycle %d, %d scripted", d.target, d.next+1, d.cycle, len(d.attempts))
	}
	c := &replayConn{t: d.attempts[d.next], pending: d.attempts[d.next].segments[0]}
	if d.log != nil {
		c.log = d.log
		c.span = sessionSpan{Target: d.target, Cycle: d.cycle, Attempt: d.next, Start: now()}
	}
	d.next++
	return c, nil
}

// errReplayStall is returned when the client reads while the recorded
// router is itself waiting for input: on a real transport both ends
// would block until the expect timeout. No workload scripts hang
// faults, so reaching this is a harness bug.
var errReplayStall = errors.New("replay: client read while the recorded session awaits input")

// replayConn is the client end of one replayed session.
type replayConn struct {
	t       *transcript
	got     int    // client lines received
	pending []byte // router output not yet read
	line    []byte // partial client line

	log  *sessionLog
	span sessionSpan
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		if c.got+1 >= len(c.t.segments) {
			return 0, io.EOF // the router closed its end
		}
		return 0, errReplayStall
	}
	n := len(c.pending)
	if n > replayChunk {
		n = replayChunk
	}
	n = copy(p, c.pending[:n])
	c.pending = c.pending[n:]
	c.span.Reads++
	c.span.Bytes += n
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error) {
	for i, b := range p {
		if b != '\n' {
			c.line = append(c.line, b)
			continue
		}
		if c.got+1 >= len(c.t.segments) {
			return i, io.ErrClosedPipe // what net.Pipe reports once the router is gone
		}
		if want := c.t.lines[c.got]; string(c.line) != want {
			return i, fmt.Errorf("replay: client sent %q where the recording has %q", c.line, want)
		}
		c.line = c.line[:0]
		c.got++
		if len(c.pending) == 0 {
			c.pending = c.t.segments[c.got]
		} else {
			c.pending = append(append([]byte(nil), c.pending...), c.t.segments[c.got]...)
		}
	}
	return len(p), nil
}

func (c *replayConn) Close() error {
	if c.log != nil {
		c.span.End = now()
		c.log.add(c.span)
		c.log = nil
	}
	return nil
}

// Deadlines are accepted and ignored, as on a transport that never
// blocks: claiming them keeps the session code on its deadline path
// instead of arming a watchdog timer per expect step.
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }
