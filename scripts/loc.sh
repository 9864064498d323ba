#!/bin/sh
# Non-test Go lines outside bench/: per package directory, the
# extraction stack (internal/ilp/... + internal/extract), and the total.
# This is the one recipe issues, PRs and CHANGES.md quote.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | sort | xargs wc -l |
	awk '$2 != "total" {
		d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1
		if (d ~ /^\.\/internal\/(ilp|extract)(\/|$)/) x += $1
	}
	END {
		for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d extraction stack (internal/ilp/... + internal/extract)\n%7d total\n", x, t
	}'
