#!/usr/bin/env bash
# The benchmark's one entry point: builds the bench program and the server
# binary it drives into .bench_build/ at the checkout root (Go's caches are
# kept there too, so nothing is written outside the checkout), then runs
#   bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the checkout root. See bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
t0=$(date +%s.%N)
(cd "$here" && go build -o "$build/bin/bench" .)
(cd "$root" && go build -o "$build/bin/connectit" ./cmd/connectit)
t1=$(date +%s.%N)
cd "$root"
BENCH_BUILD_S=$(awk "BEGIN{print $t1-$t0}") exec "$build/bin/bench" "$@"
