#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source
# inside the checkout, then hand over to it. Everything the build writes
# (binary, Go build cache) stays under .bench_build in the checkout.
#
#   bash benchmark/run.sh --workload paper-core --seed 1 --seconds 18 --trace 0
#   bash benchmark/run.sh -seed 42 -out benchmark/out/result.json
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
export GOPATH="$build/gopath"

# The harness is its own module (benchmark/go.mod) that replaces the
# fesplit module with the checkout around it; without that checkout the
# build fails and so does the run.
(cd "$here" && go build -o "$build/fesplit-bench" .)

cd "$root"
exec "$build/fesplit-bench" "$@"
