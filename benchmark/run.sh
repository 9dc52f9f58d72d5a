#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds the benchmark from source
# and runs it from the root of the checkout, passing every argument on.
# Everything the build writes — binary, Go build cache, temporary files —
# stays under .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

if commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	export ATRAPOS_BENCH_COMMIT="$commit"
fi

# The nested module replaces "atrapos" by the parent directory, so outside a
# full checkout (no ../go.mod) the build fails and nothing is printed.
GOCACHE="$build/go-cache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -C "$here" -o "$build/atrapos-benchmark" .

cd "$root"
exec "$build/atrapos-benchmark" "$@"
