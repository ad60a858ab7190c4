package logger

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
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

// ckptPayloadShape is gob's encoding of an empty checkpoint payload.
// Gob writes the whole type tree ahead of any value, zero values
// included, so these bytes change exactly when a type a checkpoint
// carries gains, loses, renames or retypes an exported field — the WAL
// record's tables.RouteEntry and tables.PairEntry among them. They are
// taken at package initialisation, before any test runs, because gob
// numbers types in the order a process first meets them.
var ckptPayloadShape = func() []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(ckptPayload{}); err != nil {
		panic(err)
	}
	return b.Bytes()
}()

const pinnedCkptShapeDigest = "d636b0b50cc553c01a85ad1d8b36c45d13a4d8233d3b0c514b2ce0c3fdbdfc66"

// TestCheckpointGobShapePinned: TestCheckpointBytesPinned pins one
// checkpoint's bytes, but only the fields its history fills; this pins
// the shape of every type the checkpoint can carry.
func TestCheckpointGobShapePinned(t *testing.T) {
	sum := sha256.Sum256(ckptPayloadShape)
	if got := hex.EncodeToString(sum[:]); got != pinnedCkptShapeDigest {
		t.Fatalf("gob shape of ckptPayload = %s (%d bytes), pinned %s: a type a checkpoint carries changed shape. Re-pin, and bump ckptMagic if the change alters what an existing checkpoint decodes to",
			got, len(ckptPayloadShape), pinnedCkptShapeDigest)
	}
}
