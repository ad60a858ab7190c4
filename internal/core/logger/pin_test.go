package logger

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// One checkpoint file — name and bytes — hashed at the commit before
// checkpoints moved onto internal/core/seglog, and re-pinned once when
// pair records split into identity deltas and a counter column
// (MCKP0004). One target keeps the gob body deterministic (a single map
// key); the pin is over the magic, the frame header and the
// ckpt-%020d.ck name around it.
const (
	pinnedCkptName   = "ckpt-00000000000000000009.ck"
	pinnedCkptDigest = "4d8bfd93de9b4048fcf8fd894226cf6e74abf31c01cec680ae3896a374998add"
)

func TestCheckpointBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := New()
	history := genHistory(rand.New(rand.NewSource(11)), "fixw", 8)
	appendAll(t, s, l, history)
	if err := s.WriteCheckpoint(l, []byte("monitor-state"), history[7].At); err != nil {
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
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pinnedCkptDigest {
		t.Fatalf("checkpoint digest = %s (%d bytes), want pinned %s", got, len(data), pinnedCkptDigest)
	}
}
