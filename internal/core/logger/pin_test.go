package logger

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// One checkpoint file — name and bytes — of three targets' histories,
// gaps and a caller payload. Checkpoints moved onto
// internal/core/seglog, then pair records split into identity deltas
// and a counter column (MCKP0004), the caller payload became the cycle
// core's per-target checkpoint (MCKP0005) and stopped carrying
// in-memory series copies (MCKP0006); MCKP0007 encodes the body by hand
// with the WAL's primitives instead of gob, so every byte of it repeats
// and a pin over many targets holds. The pin is over the magic, the
// frame header, the body and the ckpt-%020d.ck name around it.
const (
	pinnedCkptName   = "ckpt-00000000000000000030.ck"
	pinnedCkptDigest = "8ba8aa4ed315ed55cf1ee50d197f0bcdde1233cbc96562c4223ee5e668a003a5"
)

func TestCheckpointBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := New()
	var last time.Time
	for i, target := range []string{"fixw", "ucsb-r1", "dom00-gw"} {
		history := genHistory(rand.New(rand.NewSource(int64(11+i))), target, 8)
		appendAll(t, s, l, history)
		at := history[len(history)-1].At.Add(time.Hour)
		l.MarkGap(target, at, "collect "+target+": connection refused")
		if err := s.AppendGap(target, at, "collect "+target+": connection refused"); err != nil {
			t.Fatal(err)
		}
		last = at
	}
	if err := s.WriteCheckpoint(l, []byte("monitor-state"), last); err != nil {
		t.Fatal(err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if len(ckpts) != 1 || filepath.Base(ckpts[0]) != pinnedCkptName {
		t.Fatalf("checkpoint files = %v, want %s alone", ckpts, pinnedCkptName)
	}
	data, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CheckpointBytes; got != int64(len(data)) {
		t.Errorf("StoreStats.CheckpointBytes = %d after the write, the file is %d", got, len(data))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Stats().CheckpointBytes; got != int64(len(data)) {
		t.Errorf("StoreStats.CheckpointBytes = %d after the load, the file is %d", got, len(data))
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pinnedCkptDigest {
		t.Fatalf("checkpoint digest = %s (%d bytes), want pinned %s", got, len(data), pinnedCkptDigest)
	}
}
