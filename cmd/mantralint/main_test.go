package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The exit-code contract is CI-facing: the Makefile treats 1 as "fix
// your code" and 2 as "fix the lint invocation". Each code is pinned
// here by driving run() in-process over a throwaway module.

const exitTestGoMod = "module exittest\n\ngo 1.21\n"

const exitTestClean = `package a

func Add(a, b int) int { return a + b }
`

// exitTestDirty reproduces the minimal hotalloc shape: a hot root
// reaching an allocating fmt call.
const exitTestDirty = `package a

import "fmt"

func render(n int) string { return fmt.Sprintf("%d", n) }

//mantra:hotpath
func Cycle() string { return render(1) }
`

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": exitTestGoMod,
		"a/a.go": exitTestClean,
	})
	code, out, errb := runCLI(t, "-dir", dir)
	if code != exitClean {
		t.Fatalf("clean module: exit %d (stdout %q, stderr %q)", code, out, errb)
	}
	if out != "" {
		t.Fatalf("clean module printed findings: %q", out)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module")
	}
	dir := writeModule(t, map[string]string{
		"go.mod": exitTestGoMod,
		"a/a.go": exitTestDirty,
	})
	code, out, errb := runCLI(t, "-dir", dir)
	if code != exitFindings {
		t.Fatalf("dirty module: exit %d (stdout %q, stderr %q)", code, out, errb)
	}
	if !strings.Contains(out, "hotalloc") {
		t.Fatalf("findings not printed to stdout: %q", out)
	}
	if !strings.Contains(errb, "finding(s)") {
		t.Fatalf("summary not printed to stderr: %q", errb)
	}
}

func TestExitInternalErrorIsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module")
	}
	// Not a module at all: load error.
	empty := t.TempDir()
	if code, _, errb := runCLI(t, "-dir", empty); code != exitError {
		t.Fatalf("no go.mod: exit %d (stderr %q)", code, errb)
	}

	// Unknown check name: flag-level misuse, no module load needed.
	dir := writeModule(t, map[string]string{
		"go.mod": exitTestGoMod,
		"a/a.go": exitTestClean,
	})
	if code, _, errb := runCLI(t, "-dir", dir, "-checks", "nosuchcheck"); code != exitError {
		t.Fatalf("unknown check: exit %d (stderr %q)", code, errb)
	}

	// Malformed flag: the flag set itself rejects the invocation.
	if code, _, _ := runCLI(t, "-definitely-not-a-flag"); code != exitError {
		t.Fatalf("bad flag: exit %d", code)
	}
}

// -list and -hotroots are informational: always 0, even when the tree
// has findings.
func TestInformationalModesExitZero(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != exitClean {
		t.Fatalf("-list: exit %d", code)
	}
	if !strings.Contains(out, "hotalloc") || !strings.Contains(out, "sertaint") {
		t.Fatalf("-list output missing the module-wide checks: %q", out)
	}
	if testing.Short() {
		return
	}
	dir := writeModule(t, map[string]string{
		"go.mod": exitTestGoMod,
		"a/a.go": exitTestDirty,
	})
	if code, _, _ := runCLI(t, "-dir", dir, "-hotroots"); code != exitClean {
		t.Fatalf("-hotroots on dirty tree: exit %d", code)
	}
}
