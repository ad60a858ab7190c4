package logger

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core/tables"
)

// readDir maps every file under dir to its bytes.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestOpenStoreRefusesAnotherFormatVersion: an archive written under an
// earlier magic would read as torn from its first byte, and the repair
// would delete it. Open must refuse it instead, naming the file and its
// version, and leave every file as it was — whether the old version is
// on a segment, a checkpoint or both. A header that is no version at
// all is still the scan's to repair.
func TestOpenStoreRefusesAnotherFormatVersion(t *testing.T) {
	src := t.TempDir()
	s, err := OpenStore(src, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := New()
	history := genHistory(rand.New(rand.NewSource(19)), "fixw", 6)
	appendAll(t, s, l, history[:4])
	if err := s.WriteCheckpoint(l, nil, history[3].At); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, l, history[4:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	current := readDir(t, src)

	// The same archive with older magics: frames checksum their payload
	// only, so each file is otherwise intact.
	older := func(oldWAL, oldCkpt bool) string {
		dir := t.TempDir()
		for name, data := range current {
			data = append([]byte(nil), data...)
			switch {
			case oldWAL && strings.HasPrefix(name, walPrefix):
				copy(data, "MWAL0002")
			case oldCkpt && strings.HasPrefix(name, ckptPrefix):
				copy(data, "MCKP0003")
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, c := range []struct {
		name          string
		wal, ckpt     bool
		file, version string
	}{
		{"segment and checkpoint", true, true, "wal-", "MWAL0002"},
		{"segment", true, false, "wal-", "MWAL0002"},
		{"checkpoint", false, true, "ckpt-", "MCKP0003"},
	} {
		dir := older(c.wal, c.ckpt)
		before := readDir(t, dir)
		_, err := OpenStore(dir, StoreOptions{})
		if !errors.Is(err, ErrArchiveVersion) || !strings.Contains(err.Error(), c.file) || !strings.Contains(err.Error(), c.version) {
			t.Errorf("%s: open = %v, want ErrArchiveVersion naming a %s file and %s", c.name, err, c.file, c.version)
		}
		if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the refused open changed the directory", c.name)
		}
	}

	// A header torn short, or garbled past the tag, is no version: the
	// scan repairs it and recovers the checkpoint.
	for _, hdr := range []string{"MWAL00", "MWAL00x3"} {
		dir := older(false, false)
		segs, _ := filepath.Glob(filepath.Join(dir, walPrefix+"*"))
		data := append([]byte(hdr), current[filepath.Base(segs[0])][len(segMagic):]...)
		if len(hdr) < len(segMagic) {
			data = []byte(hdr)
		}
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("header %q: open: %v", hdr, err)
		}
		if ra := s.Recover(); !ra.Stats.CheckpointLoaded || !ra.Stats.TornTail {
			t.Errorf("header %q: recovery %+v, want the checkpoint and a repaired tail", hdr, ra.Stats)
		}
		s.Close()
	}
}

// TestDecodeRejectsMalformedColumn: a checksummed frame whose counter
// column does not parse into its declared row count is undecodable, like
// any other malformed payload.
func TestDecodeRejectsMalformedColumn(t *testing.T) {
	two := appendCounter(appendCounter(nil, 1, 0, false), 1<<63, 42, true)
	for _, c := range []struct {
		name string
		col  []byte
		ok   bool
	}{
		{"two rows, one with the wide escape and a rate", sealColumn(2, two), true},
		{"a row short", sealColumn(3, two), false},
		{"a byte over", append(sealColumn(2, two), 0), false},
		{"a rate cut short", sealColumn(2, two)[:len(two)-2], false},
		{"no row count", []byte{0x80}, false},
	} {
		rec := walRecord{Seq: 1, Kind: recDelta, Target: "fixw", Rec: CycleRecord{Pairs: PairDelta{Counters: c.col}}}
		got, err := decodePayload(encodePayload(rec))
		if c.ok != (err == nil) || !c.ok && !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: decode error %v", c.name, err)
		}
		if c.ok && !reflect.DeepEqual(got.Rec.Pairs.Counters, c.col) {
			t.Errorf("%s: column %x came back as %x", c.name, c.col, got.Rec.Pairs.Counters)
		}
	}
}

// TestRecoverAppliesAMisfitColumnWithoutIt: a WAL-tail delta whose
// counter column has more rows than the table it patches — what one
// shard's archive holds when a handoff began the target's chain in
// another — is counted and applied without the column, and recovery
// goes on: every cycle after it is replayed as it was logged.
func TestRecoverAppliesAMisfitColumnWithoutIt(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := New()
	history := genHistory(rand.New(rand.NewSource(17)), "fixw", 5)
	appendAll(t, s, l, history[:2])
	pairs, _ := l.ReconstructPairs("fixw", 1)
	var rows []byte
	for range len(pairs) + 1 {
		rows = appendCounter(rows, 1, 0, false)
	}
	misfit := CycleRecord{At: history[1].At.Add(time.Minute), Pairs: PairDelta{Counters: sealColumn(len(pairs)+1, rows)}}
	if err := s.AppendDelta("fixw", misfit, 0); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, l, history[2:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ra := s2.Recover()
	if ra.Stats.UnappliedCounters != 1 || ra.Stats.TornTail || len(ra.Events) != 6 {
		t.Fatalf("recovery = %+v with %d events, want one unapplied column, no tear and all 6 deltas", ra.Stats, len(ra.Events))
	}
	// The misfit cycle keeps the tables before it; the others are the
	// live logger's. Uptimes aside: the misfit is a minute later.
	noUptime := func(p []tables.PairEntry) []tables.PairEntry {
		for i := range p {
			p[i].Uptime = 0
		}
		return p
	}
	for idx, want := range []int{0, 1, 1, 2, 3, 4} {
		got, err1 := ra.Logger.ReconstructPairs("fixw", idx)
		exp, err2 := l.ReconstructPairs("fixw", want)
		if err1 != nil || err2 != nil || !samePairs(noUptime(got), noUptime(exp), true) {
			t.Errorf("cycle %d: pairs %+v (%v), want cycle %d's %+v", idx, got, err1, want, exp)
		}
	}
}
