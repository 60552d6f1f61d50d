#!/usr/bin/env bash
# gotest.sh LOG [go test arguments...] runs `go test -json` with the given
# arguments, keeps the whole event stream in LOG and prints each package's
# result as it finishes. When the run fails it names every failing test and
# package, each with the tail of its own output, so a flake leaves its name
# even when the console scrolled past it. The exit status is go test's.
# Without jq it runs plain `go test` and keeps no log.
set -uo pipefail

log=$1
shift
if ! command -v jq >/dev/null; then
	echo "gotest.sh: jq not found; running go test without a log" >&2
	exec go test "$@"
fi
mkdir -p "$(dirname "$log")"
go test -json "$@" | tee "$log" |
	jq -rj 'select((.Action == "output" and .Test == null) or .Action == "build-output") | .Output'
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
	echo "--- failed (full log in $log):"
	jq -r 'select(.Action == "fail") | [.Package, .Test // ""] | @tsv' "$log" |
		while IFS=$'\t' read -r pkg test; do
			echo "=== $pkg ${test:-(package)}"
			jq -rj --arg p "$pkg" --arg t "$test" \
				'select(.Action == "output" and .Package == $p and (.Test // "") == $t) | .Output' "$log" |
				tail -n 40
		done
fi
exit "$status"
