package collect_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/router"
)

// The streamed capture: Collector.Collect hands each dump to the table
// scanner as a view into the session's read buffer. The tests here hold
// it to the path it replaced — a session that copied every dump into a
// string, then tables.ScanDumps over the strings — on recorded sessions
// replayed under any read chunking, and show that nothing the scanner
// keeps still points into the buffer once the next read may overwrite it.

// transcript is one recorded CLI session: segments[i] is what the router
// wrote after receiving lines[:i] and before blocking on the next line;
// a session the router ended early has fewer segments than lines+1.
type transcript struct {
	lines    []string
	segments [][]byte
}

// recorder is the scripted client side of a recording: Read hands the
// session handler one line at a time, Write appends its output to the
// segment that precedes the next line.
type recorder struct {
	t    *transcript
	next int
}

func (r *recorder) Read(p []byte) (int, error) {
	if r.next >= len(r.t.lines) {
		return 0, io.EOF
	}
	r.next++
	r.t.segments = append(r.t.segments, nil)
	return copy(p, r.t.lines[r.next-1]+"\n"), nil
}

func (r *recorder) Write(p []byte) (int, error) {
	last := len(r.t.segments) - 1
	r.t.segments[last] = append(r.t.segments[last], p...)
	return len(p), nil
}

// record runs h against a client that sends exactly what a collection
// sends: the password, the commands, "exit".
func record(h collect.SessionHandler, commands []string) *transcript {
	t := &transcript{lines: append(append([]string{"pw"}, commands...), "exit"), segments: [][]byte{nil}}
	_ = h.HandleSession(&recorder{t: t})
	return t
}

// errStall is a read while the recorded router is itself waiting for a
// line: on a real transport both ends would block until a timeout.
var errStall = errors.New("replay: read while the recorded router awaits input")

// replayConn serves a transcript: a segment becomes readable once the
// client has sent the line before it, and each Read returns the next of
// chunks' sizes (cycling) or what is pending, whichever is less. A
// session reads into at least 4096 free bytes, so the split does not
// depend on the reader's buffer.
type replayConn struct {
	t       *transcript
	chunks  []int
	reads   int
	got     int    // client lines received
	pending []byte // router output not yet read
	line    []byte // partial client line
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		if c.got+1 >= len(c.t.segments) {
			return 0, io.EOF
		}
		return 0, errStall
	}
	n := min(c.chunks[c.reads%len(c.chunks)], len(c.pending), len(p))
	c.reads++
	copy(p, c.pending[:n])
	c.pending = c.pending[n:]
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error) {
	for i, b := range p {
		if b != '\n' {
			c.line = append(c.line, b)
			continue
		}
		if c.got+1 >= len(c.t.segments) {
			return i, io.ErrClosedPipe
		}
		if want := c.t.lines[c.got]; string(c.line) != want {
			return i, fmt.Errorf("replay: client sent %q where the recording has %q", c.line, want)
		}
		c.line = c.line[:0]
		c.got++
		c.pending = append(c.pending[:len(c.pending):len(c.pending)], c.t.segments[c.got]...)
	}
	return len(p), nil
}

func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

// replayDialer hands out one recorded session per Dial, in order.
type replayDialer struct {
	sessions []*transcript
	chunks   []int
	next     int
}

func (d *replayDialer) Dial() (io.ReadWriteCloser, error) {
	if d.next >= len(d.sessions) {
		return nil, errors.New("replay: no session left")
	}
	t := d.sessions[d.next]
	d.next++
	return &replayConn{t: t, chunks: d.chunks, pending: t.segments[0]}, nil
}

// replayTarget is fixw served from sessions; its clock stands still, so
// no expect step times out.
func replayTarget(sessions []*transcript, chunks []int) collect.Target {
	at := time.Unix(1_000_000, 0)
	return collect.Target{
		Name:     "fixw",
		Dialer:   &replayDialer{sessions: sessions, chunks: chunks},
		Password: "pw",
		Prompt:   "fixw> ",
		Timeout:  time.Hour,
		Clock:    func() time.Time { return at },
	}
}

var (
	recordedOnce sync.Once
	recorded     []*transcript
)

// recordedSessions returns fixw's sessions with rows in all five tables
// (ucsb-gw's IGMP table rendered under fixw's prompt), one with a
// malformed mroute row, and fixw under each fault the replay can carry:
// truncated, garbled, dropped, a rejected login and a refused
// connection. A hang needs a clock that moves, and is left out.
func recordedSessions(tb testing.TB) []*transcript {
	recordedOnce.Do(func() {
		n := testNetwork(tb)
		for _, d := range n.Topo.Domains() {
			if d.Name != "ucsb" {
				n.TransitionDomain(d.Name)
			}
		}
		for i := 0; i < 6; i++ {
			n.Step()
		}
		n.Router("fixw").Password = "pw"
		n.Router("ucsb-gw").Password = "pw"
		clean := record(n.Router("fixw"), collect.StandardCommands)
		igmp := record(n.Router("ucsb-gw"), collect.StandardCommands)
		for i, seg := range igmp.segments {
			igmp.segments[i] = bytes.ReplaceAll(seg, []byte("ucsb-gw> "), []byte("fixw> "))
		}
		// One more field on the first (S,G) row: a sound capture whose row
		// error quotes the row.
		malformed := &transcript{lines: clean.lines, segments: append([][]byte(nil), clean.segments...)}
		mroute := 3 // after the password prompt, the login prompt and the DVMRP route dump
		rows := strings.SplitN(string(malformed.segments[mroute]), "\n", 4)
		if len(rows) < 4 {
			panic("fixw renders no (S,G) row")
		}
		rows[2] += " extra"
		malformed.segments[mroute] = []byte(strings.Join(rows, "\n"))
		recorded = []*transcript{clean, igmp, malformed}
		for _, p := range []router.FaultProfile{
			{Truncate: 1}, {Truncate: 1, TruncateAfter: 40}, {Garble: 1}, {Garble: 1, GarblePerLine: 2},
			{Drop: 1}, {Drop: 1, TruncateAfter: 4000}, {RejectLogin: 1}, {RefuseConn: 1},
		} {
			recorded = append(recorded, record(n.FaultyRouter("fixw", p), collect.StandardCommands))
		}
	})
	return recorded
}

// shaped returns t as a different transport would carry it. Bit 0 of
// shape adds an echo of every command, ended by one of the four line
// endings bits 1–2 pick; bit 3 turns every LF into CR LF; bit 4 puts a
// stray CR after each prompt; bit 5 puts bytes after each prompt, which
// a large enough read takes in with it.
func shaped(t *transcript, shape byte) *transcript {
	eol := [...]string{"\r\n", "\n\r", "\n", "\r"}[shape>>1&3]
	out := &transcript{lines: t.lines, segments: make([][]byte, len(t.segments))}
	for i, seg := range t.segments {
		if shape&8 != 0 {
			seg = bytes.ReplaceAll(seg, []byte("\n"), []byte("\r\n"))
		}
		if prompt := []byte("fixw> "); bytes.HasSuffix(seg, prompt) {
			if shape&16 != 0 {
				seg = append(seg[:len(seg):len(seg)], '\r')
			}
			if shape&32 != 0 {
				seg = append(seg[:len(seg):len(seg)], "\r\n% x"...)
			}
		}
		if shape&1 != 0 && i >= 2 { // the replies to commands, not to the password
			seg = append([]byte(t.lines[i-1]+eol), seg...)
		}
		out.segments[i] = seg
	}
	return out
}

// chunkSizes maps fuzz bytes to read sizes: 1–128 bytes for a byte
// below 0x80, up to 4096 above.
func chunkSizes(b []byte) []int {
	if len(b) == 0 {
		return []int{4096}
	}
	sizes := make([]int, len(b))
	for i, c := range b {
		if sizes[i] = 1 + int(c); c >= 0x80 {
			sizes[i] = 1 + int(c&0x7f)*32
		}
	}
	return sizes
}

// endLog is the cycle's scanner, noting what each End returned.
type endLog struct {
	*tables.Scanner
	defects []error
}

func (e *endLog) End() error {
	err := e.Scanner.End()
	e.defects = append(e.defects, err)
	return err
}

// outcome is what one target's collection leaves for the cycle.
type outcome struct {
	status   collect.Status
	attempts int
	err      string
	snapshot *tables.Snapshot
	parseErr string
	defects  []error
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// streamed collects through Collector.Collect into the cycle's scanner,
// with sink wrapping the scanner when it is not nil.
func streamed(t collect.Target, wrap func(collect.Sink) collect.Sink) outcome {
	c := collect.NewCollector(collect.Policy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	c.Track(t.Name)
	sc := &endLog{Scanner: &tables.Scanner{Target: t.Name, Prompt: t.Prompt, At: t.Clock()}}
	var sink collect.Sink = sc
	if wrap != nil {
		sink = wrap(sc)
	}
	res := c.Collect(t, collect.StandardCommands, t.Clock(), new(collect.ReadBuffer), sink)
	return outcome{res.Status, res.Attempts, errText(res.Err), sc.Snapshot, errText(sc.ParseErr), sc.defects}
}

// FuzzStreamedCapture replays up to three recorded sessions, one per
// attempt, under a read chunking and a transport shape the fuzzer picks,
// through the streamed collection and through a verbatim copy of the
// session code it replaced followed by tables.ScanDumps (which
// FuzzBuildSnapshot holds to its own old implementation). Result, the
// snapshot, the row error and every attempt's defect must agree, and an
// attempt that fails leaves no snapshot.
func FuzzStreamedCapture(f *testing.F) {
	sessions := recordedSessions(f)
	for _, seed := range []struct {
		pick   uint32
		shape  byte
		chunks []byte
	}{
		{0, 0, nil},
		{0, 0, []byte{0}},               // one byte a read: every echo, CR LF and prompt split
		{1, 63, []byte{0}},              // IGMP rows, every shape, one byte a read
		{2, 0, []byte{3, 0xff}},         // the malformed row
		{0x30, 9, []byte{1, 2}},         // truncated, then clean, CR LF and an echo
		{0x543, 33, []byte{0xff}},       // garbled twice, then truncated; bytes after the prompt
		{0x776, 17, []byte{5, 0x90}},    // dropped, dropped late, a rejected login
		{0x0a9, 62, []byte{0x7f, 0}},    // refused, then defects under every shape
		{0x210, 36, []byte{2, 200, 40}}, // clean after a garbled and a truncated attempt
	} {
		f.Add(seed.pick, seed.shape, seed.chunks)
	}
	f.Fuzz(func(t *testing.T, pick uint32, shape byte, chunks []byte) {
		attempt := make([]*transcript, 3)
		for i := range attempt {
			attempt[i] = shaped(sessions[int(pick>>(4*i)&15)%len(sessions)], shape)
		}
		sizes := chunkSizes(chunks)
		got := streamed(replayTarget(attempt, sizes), nil)
		want := refCollect(replayTarget(attempt, sizes))
		sameOutcome(t, got, want)
		if got.err != "" && got.snapshot != nil {
			t.Fatalf("a failed collection left a snapshot: %s", got.err)
		}
	})
}

// sameOutcome fails t unless the two collections agree: Result, the
// snapshot, the row error's text, and each attempt's defect in text and
// class.
func sameOutcome(t *testing.T, got, want outcome) {
	t.Helper()
	if got.status != want.status || got.attempts != want.attempts || got.err != want.err {
		t.Fatalf("result: got %s after %d attempts (%s), want %s after %d (%s)", got.status, got.attempts, got.err, want.status, want.attempts, want.err)
	}
	if !reflect.DeepEqual(got.snapshot, want.snapshot) {
		t.Fatalf("snapshots differ:\n got %+v\nwant %+v", got.snapshot, want.snapshot)
	}
	if got.parseErr != want.parseErr {
		t.Fatalf("row error: got %q, want %q", got.parseErr, want.parseErr)
	}
	if len(got.defects) != len(want.defects) {
		t.Fatalf("%d attempts reached the scan, want %d", len(got.defects), len(want.defects))
	}
	for i := range got.defects {
		g, w := got.defects[i], want.defects[i]
		if errText(g) != errText(w) || errors.Is(g, collect.ErrTruncated) != errors.Is(w, collect.ErrTruncated) || errors.Is(g, collect.ErrGarbled) != errors.Is(w, collect.ErrGarbled) {
			t.Fatalf("attempt %d defect: got %v, want %v", i, g, w)
		}
	}
}

// scribbler passes each dump on, then overwrites the read buffer from
// the dump to its end with 0xFF before the session reads again.
type scribbler struct{ collect.Sink }

func (s scribbler) Dump(cmd string, raw []byte) {
	s.Sink.Dump(cmd, raw)
	buf := raw[:cap(raw)]
	for i := range buf {
		buf[i] = 0xFF
	}
}

// TestNoViewOutlivesItsDump: the scanner reads each dump through a view
// into the read buffer, which the next read overwrites. Overwriting it
// at once must change nothing the collection leaves: the (S,G) flags,
// the MBGP AS paths, a row error that quotes the row, and the defects
// of truncated and garbled sessions.
func TestNoViewOutlivesItsDump(t *testing.T) {
	sessions := recordedSessions(t)
	cases := []struct {
		name string
		pick []int
	}{
		{"every table", []int{0}},
		{"IGMP rows", []int{1}},
		{"malformed row", []int{2}},
		{"truncated, garbled, then clean", []int{3, 5, 0}},
		{"garbled every line", []int{6, 6, 6}},
	}
	for _, c := range cases {
		var attempt []*transcript
		for _, i := range c.pick {
			attempt = append(attempt, sessions[i])
		}
		plain := streamed(replayTarget(attempt, []int{4096}), nil)
		scribbled := streamed(replayTarget(attempt, []int{4096}), func(s collect.Sink) collect.Sink { return scribbler{s} })
		t.Run(c.name, func(t *testing.T) { sameOutcome(t, scribbled, plain) })
		switch sn := plain.snapshot; c.name {
		case "every table":
			if sn == nil || len(sn.Pairs) == 0 || sn.Pairs[0].Flags == "" || len(sn.MBGP) == 0 || len(sn.MBGP[0].ASPath) == 0 {
				t.Errorf("%s: the fixture has no flags or AS paths to lose: %+v", c.name, sn)
			}
		case "malformed row":
			if !strings.Contains(plain.parseErr, "extra") {
				t.Errorf("%s: row error %q does not quote the row", c.name, plain.parseErr)
			}
		case "truncated, garbled, then clean", "garbled every line":
			if len(plain.defects) == 0 || plain.defects[0] == nil {
				t.Errorf("%s: no defect to lose: %+v", c.name, plain.defects)
			}
		}
	}
}

// refCollect is the collection the streamed one replaced: each attempt
// copies every dump into a string (refCollectAll), then scans them all
// with tables.ScanDumps; a defect leaves no snapshot and fails the
// attempt.
func refCollect(t collect.Target) outcome {
	var o outcome
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		o.attempts++
		dumps, err := refCollectAll(t, collect.StandardCommands, t.Clock())
		if err == nil {
			var parseErr, defect error
			if o.snapshot, parseErr, defect = tables.ScanDumps(t.Prompt, dumps); defect != nil {
				o.snapshot = nil
			}
			o.parseErr = errText(parseErr)
			o.defects = append(o.defects, defect)
			err = defect
		}
		if err == nil {
			o.status = collect.StatusOK
			if attempt > 0 {
				o.status = collect.StatusRetried
			}
			return o
		}
		lastErr = err
	}
	o.status = collect.StatusDegraded
	o.err = fmt.Sprintf("collect %s: degraded after %d attempts: %v", t.Name, o.attempts, lastErr)
	return o
}

// What follows is the session code as it was before dumps were streamed,
// kept verbatim but for names (and a buffer per session where it had a
// pool): the oracle FuzzStreamedCapture holds the streamed read to.

type refSession struct {
	conn    io.ReadWriteCloser
	prompt  string
	timeout time.Duration
	now     func() time.Time
	buf     *refReadBuf
}

type refReadBuf struct {
	b        []byte
	searched int
}

const refMinRead = 4096

func (rb *refReadBuf) spare() []byte {
	if cap(rb.b)-len(rb.b) < refMinRead {
		rb.b = append(make([]byte, 0, 2*cap(rb.b)+refMinRead), rb.b...)
	}
	return rb.b[len(rb.b):cap(rb.b)]
}

func (rb *refReadBuf) found(pattern string) bool {
	from := max(rb.searched-len(pattern)+1, 0)
	rb.searched = len(rb.b)
	return refIndexString(rb.b[from:], pattern) >= 0
}

type refDeadliner interface {
	SetReadDeadline(time.Time) error
}

type refWriteDeadliner interface {
	SetWriteDeadline(time.Time) error
}

func (s *refSession) readUntil(pattern string) ([]byte, error) {
	if s.buf == nil {
		s.buf = new(refReadBuf)
	}
	rb := s.buf
	rb.b, rb.searched = rb.b[:0], 0
	deadline := s.now().Add(s.timeout)
	if d, ok := s.conn.(refDeadliner); ok {
		_ = d.SetReadDeadline(deadline)
		defer d.SetReadDeadline(time.Time{})
	} else {
		watchdog := time.AfterFunc(s.timeout, func() { s.conn.Close() })
		defer watchdog.Stop()
	}
	for {
		if rb.found(pattern) {
			return rb.b, nil
		}
		if s.now().After(deadline) {
			return rb.b, fmt.Errorf("%w: %q", collect.ErrTimeout, pattern)
		}
		n, err := s.conn.Read(rb.spare())
		rb.b = rb.b[:len(rb.b)+n]
		if err != nil {
			if rb.found(pattern) {
				return rb.b, nil
			}
			if errors.Is(err, os.ErrDeadlineExceeded) || !s.now().Before(deadline) {
				return rb.b, fmt.Errorf("%w: %q (%v)", collect.ErrTimeout, pattern, err)
			}
			return rb.b, err
		}
	}
}

func refIndexString(b []byte, s string) int {
	if s == "" {
		return 0
	}
	for i := 0; ; i++ {
		j := bytes.IndexByte(b[i:], s[0])
		if j < 0 || i+j+len(s) > len(b) {
			return -1
		}
		if i += j; refHasPrefix(b[i:], s) {
			return i
		}
	}
}

func refHasPrefix(b []byte, s string) bool {
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

func (s *refSession) send(line string) error {
	if d, ok := s.conn.(refWriteDeadliner); ok {
		_ = d.SetWriteDeadline(s.now().Add(s.timeout))
		defer d.SetWriteDeadline(time.Time{})
	} else {
		watchdog := time.AfterFunc(s.timeout, func() { s.conn.Close() })
		defer watchdog.Stop()
	}
	_, err := io.WriteString(s.conn, line+"\n")
	return err
}

func refLogin(t collect.Target) (*refSession, error) {
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
		now = time.Now
	}
	s := &refSession{conn: conn, prompt: t.Prompt, timeout: timeout, now: now}
	if t.Password != "" {
		if _, err := s.readUntil("Password: "); err != nil {
			conn.Close()
			return nil, fmt.Errorf("%w: no password prompt: %v", collect.ErrLogin, err)
		}
		if err := s.send(t.Password); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if _, err := s.readUntil(t.Prompt); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: no prompt after login: %v", collect.ErrLogin, err)
	}
	return s, nil
}

func (s *refSession) Run(cmd string) (string, error) {
	if err := s.send(cmd); err != nil {
		return "", err
	}
	out, err := s.readUntil(s.prompt)
	if err != nil {
		return "", err
	}
	return string(refStripEcho(out, cmd, s.prompt)), nil
}

func refStripEcho(out []byte, cmd, prompt string) []byte {
	if prompt != "" {
		trimmed, ok := refCutSuffix(out, prompt)
		if !ok {
			trimmed, _ = refCutSuffix(bytes.TrimRight(out, "\r"), prompt)
		}
		out = trimmed
	}
	if cmd != "" && refHasPrefix(out, cmd) {
		rest := out[len(cmd):]
		for _, eol := range [...]string{"\r\n", "\n\r", "\n", "\r"} {
			if refHasPrefix(rest, eol) {
				return rest[len(eol):]
			}
		}
	}
	return out
}

func refCutSuffix(b []byte, s string) ([]byte, bool) {
	if n := len(b) - len(s); n >= 0 && refHasPrefix(b[n:], s) {
		return b[:n], true
	}
	return b, false
}

func (s *refSession) Close() error {
	_ = s.send("exit")
	return s.conn.Close()
}

func refCollectAll(t collect.Target, commands []string, now time.Time) ([]collect.Dump, error) {
	s, err := refLogin(t)
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", t.Name, err)
	}
	defer s.Close()
	dumps := make([]collect.Dump, 0, len(commands))
	for _, cmd := range commands {
		raw, err := s.Run(cmd)
		if err != nil {
			return dumps, fmt.Errorf("collect %s %q: %w", t.Name, cmd, err)
		}
		dumps = append(dumps, collect.Dump{Target: t.Name, Command: cmd, Raw: raw, At: now})
	}
	return dumps, nil
}
