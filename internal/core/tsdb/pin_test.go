package tsdb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// dirDigest hashes every file of dir in name order: name, size, bytes.
func dirDigest(t *testing.T, dir string) (string, []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), names
}

// The mirror directory of the run below — file names and bytes — hashed
// at the commit before the mirror moved onto internal/core/seglog. It
// pins the MTSB0001 framing, the tsdb-%020d.seg names, where segments
// rotate, and that a re-attach continues the last segment in place.
const pinnedMirrorDigest = "30dbb4d118b426c472115ec40749d39542fd5a7c1a037aafb74e7a128ca0416d"

func TestMirrorBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a mirror past one 4 MiB rotation")
	}
	dir := t.TempDir()
	st := New()
	fill(st, "fixw", "routes", 8, 3*BlockPoints) // sealed before attach: reconciled
	if err := st.AttachDir(dir, false); err != nil {
		t.Fatal(err)
	}
	fill(st, "ucsb-r1", "sessions", 9, 3400*BlockPoints)
	if err := st.CloseDir(); err != nil {
		t.Fatal(err)
	}
	if err := st.AttachDir(dir, false); err != nil {
		t.Fatal(err)
	}
	fill(st, "ucsb-r1", "routes", 10, 200*BlockPoints)
	if err := st.CloseDir(); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistErr(); err != nil {
		t.Fatal(err)
	}
	got, names := dirDigest(t, dir)
	if len(names) < 2 {
		t.Fatalf("mirror did not rotate: %v", names)
	}
	if got != pinnedMirrorDigest {
		t.Fatalf("mirror digest = %s over %v, want pinned %s", got, names, pinnedMirrorDigest)
	}
}
