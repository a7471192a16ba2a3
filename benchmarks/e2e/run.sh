#!/usr/bin/env bash
# run.sh builds the end-to-end benchmark from source and runs it with the
# given arguments. Run it from anywhere; it works from the repository root:
#
#   bash benchmarks/e2e/run.sh -seed 1                  # all workloads
#   bash benchmarks/e2e/run.sh --workload query-mix --seed 3 --seconds 20 --trace 0
#   bash benchmarks/e2e/run.sh compare parent.jsonl change.jsonl
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ at the repository root, so a build reads and writes only
# inside the checkout. Outside a full checkout (no ../../go.mod) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C benchmarks/e2e build -o "$build/e2e" . >&2
exec "$build/e2e" "$@"
