package cycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"testing"
)

// checkpointShape is gob's encoding of an empty Checkpoint, the core
// state a crash checkpoint carries beside the delta log. Gob writes the
// whole type tree ahead of any value, zero values included, so these
// bytes change exactly when a processor target state, a tsdb series
// export, collect.TargetHealth, a delta-log record or a snapshot gains,
// loses, renames or retypes an exported field. They are taken at
// package initialisation, before any test runs, because gob numbers
// types in the order a process first meets them.
var checkpointShape = func() []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(Checkpoint{}); err != nil {
		panic(err)
	}
	return b.Bytes()
}()

const pinnedCheckpointShapeDigest = "8bdd98b9e70b734e5933fdbc78fd704cd2bd6cd22bb77362a731046df4f4dddb"

// TestCheckpointGobShapePinned: the crash-recovery and handoff tests
// compare the fields they know of; this catches a field they do not,
// which a checkpoint would carry (or drop) without any of them noticing.
func TestCheckpointGobShapePinned(t *testing.T) {
	sum := sha256.Sum256(checkpointShape)
	if got := hex.EncodeToString(sum[:]); got != pinnedCheckpointShapeDigest {
		t.Fatalf("gob shape of Checkpoint = %s (%d bytes), pinned %s: a type a checkpoint carries changed shape. Re-pin, and bump the logger's ckptMagic if the change alters what an existing checkpoint decodes to",
			got, len(checkpointShape), pinnedCheckpointShapeDigest)
	}
}
