#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/jawsd and the harness
# from the checkout's sources into .bench_build/ (compiler cache included,
# so nothing is written outside the checkout), then runs the harness with
# the caller's arguments. Build time is not part of any metric.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
# Without the program under test there is nothing to measure: fail before
# any tool runs, and leave nothing behind.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/jawsd" ]]; then
  echo "benchmark: $root holds no go.mod and cmd/jawsd: the program under test is not in this checkout" >&2
  exit 1
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/xdg" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command starts a detached telemetry child (own session, so it
# outlives this script) the first time it runs against a fresh config
# directory. Switch telemetry off there first: "go telemetry off" is the one
# invocation that starts no child, and every later one reads the mode file.
go telemetry off >&2
# Build chatter goes to stderr: stdout carries only the harness's report.
(cd "$root" && go build -o "$out/jawsd" ./cmd/jawsd) >&2
(cd "$here" && go build -o "$out/jawsbench-wall" .) >&2
cd "$root"
exec "$out/jawsbench-wall" -root "$root" -jawsd "$out/jawsd" "$@"
