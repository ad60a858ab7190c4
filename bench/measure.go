package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far. The driver goroutine
// is blocked inside every timed region, so the delta across one is the
// program's own CPU, garbage collection workers included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
	metricGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// heapAllocBytes is the cumulative heap allocation counter.
func heapAllocBytes() uint64 { return readMetric(metricAllocBytes).Uint64() }

func gcCycles() uint64 { return readMetric(metricGCCycles).Uint64() }

func gcCPUSeconds() float64 { return readMetric(metricGCCPU).Float64() }

// liveHeapMB forces two collections (the second frees what finalizers
// released in the first) and returns what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// newestFileSize is the size of the lexically last file in dir whose
// name starts with prefix (checkpoint names sort by sequence number).
func newestFileSize(dir, prefix string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for i := len(ents) - 1; i >= 0; i-- {
		if strings.HasPrefix(ents[i].Name(), prefix) && !strings.HasSuffix(ents[i].Name(), ".tmp") {
			if info, err := ents[i].Info(); err == nil {
				return info.Size()
			}
		}
	}
	return 0
}

// copyDir copies the regular files of src, recursively, into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
