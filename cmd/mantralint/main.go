// Command mantralint runs the project's determinism, clock-injection,
// crash-safety and concurrency analyzers over every package in the
// module and exits non-zero on any finding.
//
//	mantralint ./...                        # whole module (the ./... is cosmetic)
//	mantralint -checks mapiter,walerr
//	mantralint -json
//	mantralint -sarif mantralint.sarif ./...
//	mantralint -hotroots                    # print the //mantra:hotpath root set
//	mantralint -list
//
// Findings print as file:line:col: [check] message, with paths relative
// to the module root. -json replaces that with a JSON array on stdout;
// -sarif additionally writes a SARIF 2.1.0 log (GitHub code scanning's
// ingest format) to the named file regardless of the stdout format.
//
// A finding is silenced on its exact line by
//
//	//mantralint:allow <check> <reason>
//
// Exit codes are part of the tool's contract (CI and the Makefile key
// off them):
//
//	0  the lint ran and found nothing
//	1  the lint ran and reported findings
//	2  the lint itself failed: bad flags, unknown check names, module
//	   load errors, or unwritable output files
//
// See DESIGN.md §8–§9, §14 and §15 for the invariants each check
// encodes and when a suppression is legitimate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

// Exit codes; run returns them rather than calling os.Exit so tests can
// drive the whole CLI in-process.
const (
	exitClean    = 0 // ran, no findings
	exitFindings = 1 // ran, findings reported
	exitError    = 2 // the lint itself failed (flags, load, output I/O)
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mantralint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	dir := fs.String("dir", ".", "directory inside the module to lint")
	list := fs.Bool("list", false, "list registered checks and exit")
	debug := fs.Bool("debug", false, "print type-check diagnostics (analysis is best-effort under them)")
	jsonOut := fs.Bool("json", false, "print findings as a JSON array instead of text")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	hotroots := fs.Bool("hotroots", false, "print the //mantra:hotpath root set and exit")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mantralint:", err)
		return exitError
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	analyzers := lint.Analyzers()
	if *checks != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*checks, ","))
		if err != nil {
			return fail(err)
		}
	}

	mod, err := lint.NewModule(*dir)
	if err != nil {
		return fail(err)
	}
	pkgs, err := mod.LoadAll()
	if err != nil {
		return fail(err)
	}
	if *debug {
		for _, p := range pkgs {
			for _, te := range p.TypeErrors {
				fmt.Fprintf(stderr, "mantralint: typecheck %s: %v\n", p.RelPath, te)
			}
		}
	}
	res := lint.Run(pkgs, analyzers)

	if *hotroots {
		for _, r := range res.HotRoots {
			fmt.Fprintln(stdout, r)
		}
		return exitClean
	}

	findings := res.Findings

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			return fail(err)
		}
		werr := lint.WriteSARIF(f, findings)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fail(fmt.Errorf("sarif: %w", werr))
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			return fail(fmt.Errorf("json: %w", err))
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "mantralint: %d finding(s)\n", len(findings))
		return exitFindings
	}
	return exitClean
}
