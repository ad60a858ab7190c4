package cycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/engine"
	"repro/internal/core/logger"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/testfault"
)

// deadDialer is a router that refuses every session.
type deadDialer struct{}

func (deadDialer) Dial() (io.ReadWriteCloser, error) { return nil, errors.New("connection refused") }

// pinnedRun runs the twin network's targets and a dead one for 14
// cycles, the aggregate on and a route leak from cycle 4, and writes one
// checkpoint at the end into dir. It returns the core and the
// checkpoint's bytes.
func pinnedRun(t testing.TB, dir string) (*Core, []byte) {
	t.Helper()
	n, targets := twinNetwork(t)
	targets = append(targets, collect.Target{Name: "dead", Dialer: deadDialer{}, Prompt: "dead> ", Timeout: time.Second})
	c := twinCore()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c.Store = st
	for i := 1; i <= 14; i++ {
		if i == 4 {
			sc, err := netsim.LibraryScenario("route-leak", 1, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.ScheduleScenario(sc); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
		c.Run(n.Now(), targets, engine.Options{Aggregate: true})
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteCheckpoint(n.Now()); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if len(files) != 1 {
		t.Fatalf("checkpoint files = %v, want one", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return c, data
}

// The checkpoint pinnedRun writes: both halves, four targets and the
// aggregate. The first MCKP0007 checkpoint, the first whose every byte
// repeats run to run.
const pinnedCoreCkptDigest = "a83d8e9800dcc82771091de26113ac92da2b6add49c24027c689c4c7edddf252"

// TestCheckpointBytesPinned pins a real checkpoint that carries every
// table kind, gaps, open and resolved anomalies and an open breaker.
func TestCheckpointBytesPinned(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	c, data := pinnedRun(t, t.TempDir())
	var sa, mbgp, pairs, routes bool
	for _, name := range c.Log.Targets() {
		for i := 0; i < c.Log.Cycles(name); i++ {
			rec, _ := c.Log.Record(name, i)
			sa, mbgp = sa || rec.SACache > 0, mbgp || rec.MBGPRoutes > 0
			pairs = pairs || len(rec.Pairs.Upserted) > 0 && rec.Pairs.Counters != nil
			routes = routes || len(rec.Routes.Upserted) > 0 && len(rec.Routes.Removed) > 0
		}
	}
	var open, resolved bool
	for _, a := range c.Proc.Anomalies() {
		open, resolved = open || !a.Resolved, resolved || a.Resolved
	}
	h, gaps := c.HealthRow("dead")
	if !sa || !mbgp || !pairs || !routes || !open || !resolved || h.Breaker != collect.BreakerOpen || gaps == 0 || len(c.Log.Gaps("dead")) == 0 {
		t.Fatalf("precondition: the run leaves something out: SA %v, MBGP %v, pairs %v, routes %v, open %v, resolved %v anomalies, dead target's breaker %v with %d gaps",
			sa, mbgp, pairs, routes, open, resolved, h.Breaker, gaps)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pinnedCoreCkptDigest {
		t.Fatalf("checkpoint digest = %s (%d bytes), want pinned %s", got, len(data), pinnedCoreCkptDigest)
	}
}

// TestCheckpointBytesRepeat: two identical runs write the same bytes.
func TestCheckpointBytesRepeat(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	_, a := pinnedRun(t, t.TempDir())
	_, b := pinnedRun(t, t.TempDir())
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs wrote different checkpoints (%d and %d bytes)", len(a), len(b))
	}
}

// fill sets every exported field v reaches to a value other than its
// zero: integers count up (1 to 31, so one fits a prefix length), floats
// and strings carry the count too, bools are true, instants are UTC with
// nanoseconds, pointers are allocated, and slices and maps get two
// elements. A kind it has no rule for fails the test, so a field of a
// new kind is not skipped silently.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(int64(1e9+*n), int64(*n)).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, n)
			fill(t, e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.String:
		v.SetString(fmt.Sprint("s", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n%31 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%31 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	default:
		t.Fatalf("fill: no rule for %s", v.Type())
	}
}

// TestCheckpointEveryFieldRoundTrip sets every exported field of every
// type a checkpoint carries — the delta log's histories and the crash
// form of Checkpoint — writes them through the store, reopens it and
// requires what it reads back to be deeply equal: a field the codec
// forgets fails here. The few values a checkpoint cannot hold are set
// to what it can: an identity row carries no counters, a counter column
// must parse, and an open episode indexes one of its target's
// anomalies.
func TestCheckpointEveryFieldRoundTrip(t *testing.T) {
	testfault.Deadline(t, testfault.Limit)
	var n int
	want := &Checkpoint{}
	fill(t, reflect.ValueOf(want).Elem(), &n)
	// The delta log's histories go in the store's half.
	logs := want.Logs
	want.Logs = NewCheckpoint().Logs
	for _, ts := range logs {
		for i := range ts.Records {
			rec := &ts.Records[i]
			for j := range rec.Pairs.Upserted {
				e := &rec.Pairs.Upserted[j]
				e.RateKbps, e.Packets = 0, 0
			}
			rec.Pairs.Counters = []byte{1, 4} // one row: one more packet
		}
	}
	for _, st := range want.Proc {
		for i := range st.Open {
			st.Open[i].Index = i
		}
	}

	dir := t.TempDir()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := logger.New()
	for name, ts := range logs {
		l.ImportTarget(name, ts)
	}
	if err := st.WriteCheckpoint(l, appendCheckpoint(nil, want), time.Unix(2e9, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = logger.OpenStore(dir, logger.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ra := st.Recover()
	for name, ts := range logs {
		got := logger.TargetState{Gaps: ra.Logger.Gaps(name)}
		_, got.FullEntries, _ = ra.Logger.StorageStats(name)
		for i := 0; i < ra.Logger.Cycles(name); i++ {
			rec, _ := ra.Logger.Record(name, i)
			got.Records = append(got.Records, rec)
		}
		if !reflect.DeepEqual(got, ts) {
			t.Errorf("%s's history came back as\n%+v\nwant\n%+v", name, got, ts)
		}
	}
	got, err := decodeCheckpoint(ra.Extra)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint came back as\n%+v\nwant\n%+v", got, want)
	}
}

// checkpointOf is the checkpoint c writes at at, written into a fresh
// store so that two cores' files compare byte for byte.
func checkpointOf(t *testing.T, c *Core, at time.Time) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	own := c.Store
	c.Store = st
	err = c.WriteCheckpoint(at)
	c.Store = own
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if len(files) != 1 {
		t.Fatalf("checkpoint files = %v, want one", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Rates and packet counts a scripted row draws from: zeros of both
// signs, NaN, infinities, a rate no float32 holds, counts on either side
// of a wrap and one a half-turn away from them.
var (
	scriptRates   = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 1e300, 64}
	scriptPackets = []uint64{0, 1, 1 << 40, math.MaxUint64 - 1, math.MaxUint64, 1 << 63}
)

// scriptedCore archives the history script writes to dir through a
// core's Log and Ingest stages, with no collection, and returns the core
// and the instant of its last cycle. Each cycle reads a control byte:
// bit 0 picks one of two targets, bits 1–2 pick a gap, empty tables or
// rows, and bit 6 writes a checkpoint after the cycle. A cycle with rows
// reads one byte per pair and per route key — a row's byte picks whether
// it is there, its rate and its packet count, or its metric — and one
// for the sizes of the SA cache and the MBGP RIB.
func scriptedCore(t *testing.T, dir string, script []byte) (*Core, time.Time) {
	t.Helper()
	st, err := logger.OpenStore(dir, logger.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := twinCore()
	c.Store = st
	at := time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC)
	since := at.Add(-time.Hour)
	next := func() byte {
		b := script[0]
		script = script[1:]
		return b
	}
	for len(script) > 0 && at.Before(time.Date(2001, 9, 4, 0, 0, 0, 0, time.UTC)) {
		ctl := next()
		at = at.Add(30 * time.Minute)
		name := []string{"fixw", "ucsb-r1"}[ctl&1]
		it := &engine.Item{Target: collect.Target{Name: name}, Res: collect.Result{Target: name}}
		switch ctl >> 1 & 3 {
		case 0:
			it.Res.Err = errors.New("collect " + name + ": connection refused")
		case 1:
			it.Snapshot = &tables.Snapshot{Target: name, At: at}
		default:
			it.Snapshot = &tables.Snapshot{Target: name, At: at}
			for k := 0; k < 4 && len(script) > 0; k++ {
				if b := next(); b&1 == 1 {
					it.Snapshot.Pairs = append(it.Snapshot.Pairs, tables.PairEntry{
						Source: addr.V4(10, 0, 0, byte(k)), Group: addr.V4(224, 2, 0, 1), Flags: "DT",
						RateKbps: scriptRates[b>>1&7], Packets: scriptPackets[int(b>>4)%len(scriptPackets)],
						Since: since.UnixNano()})
				}
			}
			for k := 0; k < 4 && len(script) > 0; k++ {
				if b := next(); b&1 == 1 {
					it.Snapshot.Routes = append(it.Snapshot.Routes, tables.RouteEntry{
						Prefix: addr.PrefixFrom(addr.V4(20+byte(k), 0, 0, 0), 8), Gateway: addr.V4(192, 0, 2, 1),
						Metric: int(b >> 1), Since: since.UnixNano()})
				}
			}
			if len(script) > 0 {
				b := next()
				it.Snapshot.SAs = make([]tables.SAEntry, b&7)
				it.Snapshot.MBGP = make([]tables.MBGPEntry, b>>3&7)
			}
		}
		c.stageLog(it, at)
		c.stageIngest(it, at)
		if it.Res.Err != nil {
			c.Collector.Track(name)
			c.Collector.RecordFailure(name, at, it.Res.Err)
		} else {
			c.Collector.RecordSuccess(name, at)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		if ctl&0x40 != 0 {
			if err := c.WriteCheckpoint(at); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c, at
}

// FuzzCheckpointDecode holds the crash form's decoder to two things.
// Arbitrary bytes decode or are logger.ErrBadCheckpoint, never a panic,
// and what decodes encodes to bytes that decode and encode to
// themselves. And, reading the same bytes as a script for scriptedCore,
// the core recovered from the archive a crash leaves writes the
// checkpoint the live one writes, byte for byte: NaN and −0 rates,
// counter wraps, empty tables, gaps, and checkpoints anywhere in the
// history included.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{
		{0x44, 0x05, 0x03, 0x13, 0x2f, 0x1f, 0x03, 0x00, 0x05, 0x1a}, // fixw: NaN and −0 rates, 2^40 packets; checkpoint
		{0x05, 0x0c, 0xff, 0x3f, 0x25, 0x01, 0x01, 0x03, 0x00, 0x09}, // ucsb-r1: counts just short of the wrap
		{0x42}, // fixw: empty tables; checkpoint
		{0x07, 0x47, 0x3f, 0x0d, 0x01, 0x00, 0x11, 0x03, 0x00, 0x3f}, // ucsb-r1: +Inf and 1e300 rates, 2^64−1 packets
		{0x09}, // ucsb-r1: a gap
		{0x04, 0x06, 0x09, 0x0b, 0x11, 0x41, 0x01, 0x00, 0x00, 0x00}, // fixw: −Inf rate, no SAs or MBGP routes
		{0x05, 0x0b, 0x5b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12}, // ucsb-r1: a wrap to 0 and a half-turn
	}, nil))
	c, _ := pinnedRun(f, f.TempDir())
	var targets []collect.Target
	for _, name := range c.Log.Targets() {
		targets = append(targets, collect.Target{Name: name})
	}
	ck := c.Export(time.Date(2001, 9, 3, 0, 0, 0, 0, time.UTC), targets)
	ck.Ring = c.Proc.Ring()
	f.Add(appendCheckpoint(nil, ck))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ck, err := decodeCheckpoint(data); err != nil {
			if !errors.Is(err, logger.ErrBadCheckpoint) {
				t.Fatalf("decode failed with %v, not ErrBadCheckpoint", err)
			}
		} else {
			once := appendCheckpoint(nil, ck)
			again, err := decodeCheckpoint(once)
			if err != nil {
				t.Fatalf("a decoded checkpoint re-encodes to bytes that do not decode: %v", err)
			}
			if twice := appendCheckpoint(nil, again); !bytes.Equal(twice, once) {
				t.Fatal("a decoded checkpoint does not re-encode to the same bytes")
			}
		}

		dir := t.TempDir()
		live, at := scriptedCore(t, dir, data)
		st, err := logger.OpenStore(dir, logger.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		got := twinCore()
		if _, err := got.Recover(st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointOf(t, got, at), checkpointOf(t, live, at)) {
			t.Fatal("the recovered core's checkpoint differs from the live core's")
		}
	})
}
