package mantra

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"testing"
)

// archiveExtraShape is gob's encoding of an empty archiveExtra, the
// monitor state a checkpoint carries beside the delta log. Gob writes
// the whole type tree ahead of any value, zero values included, so these
// bytes change exactly when the processor state, a stability tracker's
// state or collect.TargetHealth gains, loses, renames or retypes an
// exported field. They are taken at package initialisation, before any
// test runs, because gob numbers types in the order a process first
// meets them.
var archiveExtraShape = func() []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(archiveExtra{}); err != nil {
		panic(err)
	}
	return b.Bytes()
}()

const pinnedArchiveExtraShapeDigest = "8b605d2a395392b56d88f6672b56d3ea3eeabb3bd082dd53ff816e0510e9a493"

// TestArchiveExtraGobShapePinned: the crash-recovery tests compare the
// fields they know of; this catches a field they do not, which a
// checkpoint would carry (or drop) without any of them noticing.
func TestArchiveExtraGobShapePinned(t *testing.T) {
	sum := sha256.Sum256(archiveExtraShape)
	if got := hex.EncodeToString(sum[:]); got != pinnedArchiveExtraShapeDigest {
		t.Fatalf("gob shape of archiveExtra = %s (%d bytes), pinned %s: a type a checkpoint carries changed shape. Re-pin, and bump the logger's ckptMagic if the change alters what an existing checkpoint decodes to",
			got, len(archiveExtraShape), pinnedArchiveExtraShapeDigest)
	}
}
