// Package collect implements Mantra's Data Collector module: it logs into
// multicast routers, captures raw table dumps, and pre-processes them for
// the router-table processor.
//
// As in the paper, collection works by driving a router's interactive CLI
// with expect-style scripts — log in with a password, wait for the
// prompt, issue `show` commands, capture everything until the next prompt
// — rather than via SNMP (whose MIBs did not cover the newer multicast
// protocols). Targets can be in-process simulated routers or real TCP
// endpoints; both travel through the same line-oriented session code.
package collect

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"
)

// ErrTimeout reports that an expected pattern did not arrive in time.
var ErrTimeout = errors.New("collect: timed out waiting for pattern")

// ErrLogin reports failed authentication.
var ErrLogin = errors.New("collect: login failed")

// Dialer opens a byte-stream session to a router CLI.
type Dialer interface {
	Dial() (io.ReadWriteCloser, error)
}

// TCPDialer connects to a router CLI over TCP.
type TCPDialer struct {
	Addr string
	// Timeout bounds the connection attempt; zero means 5 s.
	Timeout time.Duration
}

// Dial implements Dialer.
func (d TCPDialer) Dial() (io.ReadWriteCloser, error) {
	to := d.Timeout
	if to <= 0 {
		to = 5 * time.Second
	}
	return net.DialTimeout("tcp", d.Addr, to)
}

// SessionHandler serves one CLI session over a byte stream. *router.Router
// implements it, as does the fault-injecting *router.FaultyRouter wrapper,
// so either can back an in-process collection target.
type SessionHandler interface {
	HandleSession(rw io.ReadWriter) error
}

// PipeDialer runs sessions against an in-process simulated router through
// a synchronous pipe — the same session logic as TCP without a socket.
type PipeDialer struct {
	Router SessionHandler
}

// Dial implements Dialer.
func (d PipeDialer) Dial() (io.ReadWriteCloser, error) {
	if d.Router == nil {
		return nil, errors.New("collect: nil router")
	}
	client, server := net.Pipe()
	go func() {
		_ = d.Router.HandleSession(server)
		server.Close()
	}()
	return client, nil
}

// Target is one monitored router.
type Target struct {
	// Name labels the collection point ("fixw", "ucsb").
	Name string
	// Dialer opens sessions.
	Dialer Dialer
	// Password authenticates; must match the router's.
	Password string
	// Prompt is the CLI prompt to wait for, e.g. "fixw> ".
	Prompt string
	// Timeout bounds each expect step; zero means 10 s.
	Timeout time.Duration
	// Clock supplies the time base for expect deadlines; nil means the
	// wall clock. Tests and simulations inject a virtual clock so
	// timeout behaviour is reproducible.
	Clock func() time.Time
}

// Session is an authenticated CLI session.
type Session struct {
	conn    io.ReadWriteCloser
	prompt  string
	timeout time.Duration
	now     func() time.Time
	// buf is the read buffer; what readUntil returns is a view into it.
	buf *ReadBuffer
}

// ReadBuffer is the memory a session reads into: every readUntil starts
// over at its front, so what one returned is valid until the next. It
// is made at Size bytes (plus a read's free space) by the first read;
// Peak is the most it has held. The zero value is ready.
type ReadBuffer struct {
	Size, Peak int
	b          []byte
	searched   int // how much of b has been searched for the pattern
	next       int // where the bytes read past the last capture start
}

// minRead is the least free space a read is offered; a buffer with less
// doubles first.
const minRead = 4096

// spare returns the buffer's free space, growing the buffer first if
// there is less than minRead of it.
func (rb *ReadBuffer) spare() []byte {
	if cap(rb.b)-len(rb.b) < minRead {
		rb.b = append(make([]byte, 0, 2*cap(rb.b)+minRead), rb.b...)
	}
	return rb.b[len(rb.b):cap(rb.b)]
}

// found returns where the first pattern in the buffer ends, or -1 if it
// has not arrived, searching only the bytes read since the last call
// and the few before them a pattern split across two reads could start
// in. Every read is followed by a call, so it also keeps Peak.
func (rb *ReadBuffer) found(pattern string) int {
	from := max(rb.searched-len(pattern)+1, 0)
	rb.searched = len(rb.b)
	rb.Peak = max(rb.Peak, len(rb.b))
	if i := indexString(rb.b[from:], pattern); i >= 0 {
		return from + i + len(pattern)
	}
	return -1
}

// deadliner is implemented by net.Conn and net.Pipe ends.
type deadliner interface {
	SetReadDeadline(time.Time) error
}

// writeDeadliner is implemented by net.Conn and net.Pipe ends.
type writeDeadliner interface {
	SetWriteDeadline(time.Time) error
}

// readUntil consumes the stream until pattern appears, returning
// everything read through its first appearance — as a view into the
// session's read buffer, capped there and valid until the next
// readUntil, which starts with the bytes a read took in past it, however
// the transport split them. The session timeout is
// enforced for every transport: connections with native read deadlines
// use them, and all others get a watchdog timer that closes the
// connection — the only way to unblock a stuck Read — so a hung router
// can never wedge the collector. A timed-out session is dead either way;
// callers retry with a fresh login.
func (s *Session) readUntil(pattern string) ([]byte, error) {
	rb := s.buf
	if rb.b == nil {
		rb.b = make([]byte, 0, rb.Size+minRead)
	}
	rb.b, rb.searched = rb.b[:copy(rb.b, rb.b[rb.next:])], 0
	deadline := s.now().Add(s.timeout)
	if d, ok := s.conn.(deadliner); ok {
		_ = d.SetReadDeadline(deadline)
		defer d.SetReadDeadline(time.Time{})
	} else {
		watchdog := time.AfterFunc(s.timeout, func() { s.conn.Close() })
		defer watchdog.Stop()
	}
	for {
		if end := rb.found(pattern); end >= 0 {
			rb.next = end
			return rb.b[:end:end], nil
		}
		if s.now().After(deadline) {
			return rb.b, fmt.Errorf("%w: %q", ErrTimeout, pattern)
		}
		n, err := s.conn.Read(rb.spare())
		rb.b = rb.b[:len(rb.b)+n]
		if err != nil {
			if end := rb.found(pattern); end >= 0 {
				rb.next = end
				return rb.b[:end:end], nil
			}
			if errors.Is(err, os.ErrDeadlineExceeded) || !s.now().Before(deadline) {
				return rb.b, fmt.Errorf("%w: %q (%v)", ErrTimeout, pattern, err)
			}
			return rb.b, err
		}
	}
}

// indexString is bytes.Index for a string needle, without converting it.
func indexString(b []byte, s string) int {
	if s == "" {
		return 0
	}
	for i := 0; ; i++ {
		j := bytes.IndexByte(b[i:], s[0])
		if j < 0 || i+j+len(s) > len(b) {
			return -1
		}
		if i += j; hasPrefix(b[i:], s) {
			return i
		}
	}
}

// hasPrefix is bytes.HasPrefix for a string prefix, without converting it.
func hasPrefix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// send writes one line under the session timeout. Writes need the same
// hard bound as reads: on an unbuffered transport (net.Pipe) a write
// blocks until the peer reads, and a peer that timed out or wedged
// mid-dump never will — without a deadline, sending "exit" to a stuck
// session deadlocks both ends in Write forever.
func (s *Session) send(line string) error {
	if d, ok := s.conn.(writeDeadliner); ok {
		_ = d.SetWriteDeadline(s.now().Add(s.timeout))
		defer d.SetWriteDeadline(time.Time{})
	} else {
		watchdog := time.AfterFunc(s.timeout, func() { s.conn.Close() })
		defer watchdog.Stop()
	}
	_, err := io.WriteString(s.conn, line+"\n")
	return err
}

// Login opens and authenticates a session against t that reads into buf.
func Login(t Target, buf *ReadBuffer) (*Session, error) {
	conn, err := t.Dialer.Dial()
	if err != nil {
		return nil, err
	}
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	now := t.Clock
	if now == nil {
		now = time.Now // live-target default; injected via Target.Clock everywhere else
	}
	buf.next = len(buf.b) // nothing another session read is this one's
	s := &Session{conn: conn, prompt: t.Prompt, timeout: timeout, now: now, buf: buf}
	if t.Password != "" {
		if _, err := s.readUntil("Password: "); err != nil {
			conn.Close()
			return nil, fmt.Errorf("%w: no password prompt: %v", ErrLogin, err)
		}
		if err := s.send(t.Password); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if _, err := s.readUntil(t.Prompt); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: no prompt after login: %v", ErrLogin, err)
	}
	return s, nil
}

// Run issues one command and returns its raw output with the command
// echo and trailing prompt stripped: a view into the session's read
// buffer, valid until the session reads again.
func (s *Session) Run(cmd string) ([]byte, error) {
	if err := s.send(cmd); err != nil {
		return nil, err
	}
	out, err := s.readUntil(s.prompt)
	if err != nil {
		return nil, err
	}
	return stripEcho(out, cmd, s.prompt), nil
}

// stripEcho cleans one captured command output: the trailing prompt (with
// any stray carriage returns a CRLF transport appends around it, those
// after the previous prompt heading this capture) and the leading echo
// of the command are removed, leaving only the dump body.
func stripEcho(out []byte, cmd, prompt string) []byte {
	out = bytes.TrimLeft(out, "\r")
	if prompt != "" {
		trimmed, ok := cutSuffix(out, prompt)
		if !ok {
			trimmed, _ = cutSuffix(bytes.TrimRight(out, "\r"), prompt)
		}
		out = trimmed
	}
	// Strip a leading echo of the command for LF, CRLF, and the interleaved
	// LF-CR orderings some transports produce.
	if cmd != "" && hasPrefix(out, cmd) {
		rest := out[len(cmd):]
		for _, eol := range [...]string{"\r\n", "\n\r", "\n", "\r"} {
			if hasPrefix(rest, eol) {
				return rest[len(eol):]
			}
		}
	}
	return out
}

// cutSuffix is bytes.CutSuffix for a string suffix, without converting it.
func cutSuffix(b []byte, s string) ([]byte, bool) {
	if n := len(b) - len(s); n >= 0 && hasPrefix(b[n:], s) {
		return b[:n], true
	}
	return b, false
}

// Close logs out and closes the connection.
func (s *Session) Close() error {
	_ = s.send("exit")
	return s.conn.Close()
}

// Dump is one captured table.
type Dump struct {
	Target  string
	Command string
	Raw     string
	At      time.Time
}

// StandardCommands is the dump set Mantra collects each cycle: the DVMRP
// route table and the multicast forwarding table are the two primary data
// sets (§IV-A); the rest capture the newer protocols' state.
var StandardCommands = []string{
	"show ip dvmrp route",
	"show ip mroute",
	"show ip igmp groups",
	"show ip pim group",
	"show ip msdp sa-cache",
	"show ip mbgp",
}

// CollectAll logs into the target once and captures every command.
// Dumps carry the collection timestamp now; each is copied out of the
// session's read buffer into a string of its own.
func CollectAll(t Target, commands []string, now time.Time) ([]Dump, error) {
	dumps := make([]Dump, 0, len(commands))
	err := stream(t, commands, new(ReadBuffer), func(cmd string, raw []byte) {
		dumps = append(dumps, Dump{Target: t.Name, Command: cmd, Raw: string(raw), At: now})
	})
	return dumps, err
}

// stream logs into the target once, reading into buf, and hands each
// command's output to dump the moment its prompt arrives: a view into
// buf, valid until dump returns. It stops at the first session error;
// the commands before it have been handed over, and the session still
// logs out.
func stream(t Target, commands []string, buf *ReadBuffer, dump func(cmd string, raw []byte)) error {
	s, err := Login(t, buf)
	if err != nil {
		return fmt.Errorf("collect %s: %w", t.Name, err)
	}
	defer s.Close()
	for _, cmd := range commands {
		raw, err := s.Run(cmd)
		if err != nil {
			return fmt.Errorf("collect %s %q: %w", t.Name, cmd, err)
		}
		dump(cmd, raw)
	}
	return nil
}

// Preprocess cleans a raw dump into trimmed, non-empty lines: excess
// whitespace collapsed, delimiters and prompt remnants removed — the
// paper's pre-processing step ahead of table mapping.
func Preprocess(raw string) []string {
	var out []string
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "%") { // CLI error remnants
			continue
		}
		out = append(out, strings.Join(strings.Fields(line), " "))
	}
	return out
}
