package tsdb

import (
	"fmt"
	"path/filepath"

	"repro/internal/core/seglog"
)

// What persist_test.go's sweeps need to find and fabricate mirror
// segments on their own, now that the file layout lives in seglog.

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, seglog.Name(segPrefix, seq, ".seg"))
}

func listSegments(dir string) ([]string, error) {
	ids, err := seglog.List(dir, segPrefix, ".seg")
	var out []string
	for _, id := range ids {
		out = append(out, segmentPath(dir, id))
	}
	return out, err
}

func segmentSeq(path string) uint64 {
	var seq uint64
	fmt.Sscanf(filepath.Base(path), "tsdb-%d.seg", &seq)
	return seq
}
