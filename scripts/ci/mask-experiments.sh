#!/usr/bin/env bash
# Mask the host-dependent parts of `go run ./cmd/experiments -all`:
# every time token (`…s`, like 0.512s) and every time ratio (`…x`, like
# 4.6x) becomes <t>, runs of spaces squeeze to one, trailing spaces go,
# and a table's rule line squeezes to one dash per column (its width
# follows the widest cell, a time on a slow host), so what is left
# (costs, speedups, e-node counts, rows) is a function of the code
# alone. Reads the named file, or stdin.
#
# Check:     go run ./cmd/experiments -all > experiments.txt
#            scripts/ci/mask-experiments.sh experiments.txt | diff -u internal/exp/testdata/experiments.golden -
# Re-record: go run ./cmd/experiments -all | scripts/ci/mask-experiments.sh > internal/exp/testdata/experiments.golden
set -euo pipefail
sed -E 's/[0-9][0-9.]*[sx]([^[:alnum:]]|$)/<t>\1/g; s/ +/ /g; s/ +$//; /^[- ]+$/s/-+/-/g' "$@"
