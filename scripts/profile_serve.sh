#!/usr/bin/env bash
# Per-site allocation profile of served requests: build jawsd into
# $PROFILE_DIR, boot it with the serve workloads' configuration (the flags
# of benchmark/daemon.go's daemonFlags) under GODEBUG=memprofilerate=1, so
# every allocation is recorded, warm it with 1 000 jawsload requests on one
# step, take a heap profile, send 10 000 more, take another, and print the
# difference by allocation site. Divide a site's objects by 10 000 for its
# cost per request.
#
# Then what a daemon holds: boot a fresh one, send it serve-cold's load
# (8-point Lag4 requests over all 8 steps, 272 of them: the benchmark's
# 80 warm-up and 192 open-phase requests), and print the sample memory its
# engine's arena holds (the jaws_sample_bytes gauge of /metrics) and its
# in-use heap after a collection, by allocation site.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
dir=${PROFILE_DIR:-${TMPDIR:-/tmp}/jaws-profile}
requests=10000
mkdir -p "$dir"
$GO build -o "$dir/jawsd" ./cmd/jawsd
$GO build -o "$dir/jawsload" ./cmd/jawsload

daemon_pid="" addr="" pprof=""
trap '[ -z "$daemon_pid" ] || kill "$daemon_pid" 2>/dev/null || true' EXIT

# boot starts a jawsd and waits for its serving and pprof addresses.
boot() {
    GODEBUG=memprofilerate=1 "$dir/jawsd" -addr 127.0.0.1:0 -nodes 1 \
        -grid 128 -atom 32 -steps 8 -cache 256 -queue 64 -workers 8 \
        -sched jaws2 -seed 1 -pprof 127.0.0.1:0 -allow-quit >"$dir/jawsd.log" 2>&1 &
    daemon_pid=$!
    addr="" pprof=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#^jawsd listening on http://\([^ ]*\).*#\1#p' "$dir/jawsd.log")
        pprof=$(sed -n 's#^pprof on http://\([^/]*\)/.*#\1#p' "$dir/jawsd.log")
        [ -n "$addr" ] && [ -n "$pprof" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || { echo "jawsd died during startup:"; cat "$dir/jawsd.log"; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] && [ -n "$pprof" ] || { echo "jawsd never printed its addresses"; cat "$dir/jawsd.log"; exit 1; }
}

# quit drains the daemon and waits for it to exit.
quit() {
    curl -fsS -X POST "http://$addr/quitquitquit" >/dev/null
    wait "$daemon_pid"
    daemon_pid=""
}

# load sends $1 requests with seed $2 over the first $3 steps.
load() { "$dir/jawsload" -addr "$addr" -steps "$3" -clients 2 -requests "$1" -seed "$2" >/dev/null; }

boot
load 1000 1 1
curl -fsS -o "$dir/serve-base.prof" "http://$pprof/debug/pprof/heap?gc=1"
load "$requests" 2 1
curl -fsS -o "$dir/serve.prof" "http://$pprof/debug/pprof/heap?gc=1"
quit

echo "objects allocated by $requests served requests (serve-hot's shape: 8 points, one step), by site:"
$GO tool pprof -sample_index=alloc_objects -base "$dir/serve-base.prof" -top -nodecount 40 "$dir/jawsd" "$dir/serve.prof"

boot
load 272 1 8
curl -fsS -o "$dir/serve-cold.prof" "http://$pprof/debug/pprof/heap?gc=1"
curl -fsS -o "$dir/serve-cold.metrics" "http://$addr/metrics"
quit

echo
echo "in-use heap after 272 requests of serve-cold's shape (8 points over 8 steps):"
awk '$1 == "jaws_sample_bytes" { printf "atom samples (jaws_sample_bytes): %d B = %.1f kB\n", $2, $2 / 1000 }' "$dir/serve-cold.metrics"
echo "by site:"
$GO tool pprof -sample_index=inuse_space -top -nodecount 25 "$dir/jawsd" "$dir/serve-cold.prof"
