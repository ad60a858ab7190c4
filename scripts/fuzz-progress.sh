#!/usr/bin/env bash
# Runs one `go test -fuzz` command, passing its output through, and fails
# when the run made no executions past its first progress report: the
# exec count then stayed where gathering the baseline corpus left it, so
# the run fuzzed nothing however long it was given. Usage:
#
#	scripts/fuzz-progress.sh go test ./internal/core/tables -run '^$' -fuzz '^FuzzBuildSnapshot$' -fuzztime 10s
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" 2>&1 | tee "$out"
awk '/ execs: [0-9]+/ { n = $0; sub(/.* execs: /, "", n); sub(/ .*/, "", n); if (first == "") first = n; last = n }
	END {
		if (first == "" || last + 0 <= first + 0) {
			printf "fuzz-progress: exec count %s at the first report and %s at the last: the run fuzzed nothing past its baseline\n", first, last
			exit 1
		}
	}' "$out"
