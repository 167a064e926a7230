#!/usr/bin/env bash
# End-to-end serving check: boot a real jawsd with a deliberately small
# admission queue and the full observability surface enabled (request
# tracing, structured logs, SLO tracking, pprof), drive a seeded jawsload
# burst at it (sheds expected, 5xx and transport errors fatal), then
# drain via /quitquitquit and verify the daemon exits cleanly — and that
# the emitted artifacts stitch together: the X-Jaws-Request-Id captured
# at the client resolves through jawsreport -req to a record carrying
# both the wall-clock and the virtual-clock side of the same request,
# and through jawsreport -why to the request's scheduler wait chain
# (the run executes with the decision flight recorder on).
#
# Artifacts (trace, log, metrics, latency records, report) land in
# $E2E_ARTIFACTS when set (CI uploads that directory), else in a temp dir.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
workdir=$(mktemp -d)
artifacts=${E2E_ARTIFACTS:-$workdir}
mkdir -p "$artifacts"
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

$GO build -o "$workdir/jawsd" ./cmd/jawsd
$GO build -o "$workdir/jawsload" ./cmd/jawsload
$GO build -o "$workdir/jawsreport" ./cmd/jawsreport

"$workdir/jawsd" -addr 127.0.0.1:0 -nodes 2 -queue 8 -workers 2 \
    -grid 64 -atom 32 -steps 4 -cache 16 -allow-quit -flight \
    -metrics-out "$artifacts/metrics.prom" \
    -trace-out "$artifacts/trace.jsonl" \
    -log-out "$artifacts/jawsd.jsonl" \
    -pprof 127.0.0.1:0 -req-seed 7 \
    -slo-target 5s -slo-objective 0.9 >"$workdir/jawsd.log" 2>&1 &
daemon_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^jawsd listening on http://\([^ ]*\).*#\1#p' "$workdir/jawsd.log")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "jawsd died during startup:"; cat "$workdir/jawsd.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "jawsd never printed its address"; cat "$workdir/jawsd.log"; exit 1; }
echo "jawsd up on $addr"

# The diagnostics listener advertises itself on stdout; probe its index.
pprof_addr=""
for _ in $(seq 1 50); do
    pprof_addr=$(sed -n 's#^pprof on http://\([^/]*\)/.*#\1#p' "$workdir/jawsd.log")
    [ -n "$pprof_addr" ] && break
    sleep 0.1
done
[ -n "$pprof_addr" ] || { echo "jawsd never advertised pprof"; cat "$workdir/jawsd.log"; exit 1; }
curl -fsS "http://$pprof_addr/debug/pprof/" >/dev/null
echo "pprof up on $pprof_addr"

# One traced request by hand: capture the request ID the server assigned
# so the trace artifacts can be resolved back to this exact request.
rid=$(curl -fsS -D - -o /dev/null -X POST "http://$addr/query" \
    -H 'Content-Type: application/json' \
    -d '{"step":1,"kernel":"lag4","points":[{"x":1,"y":2,"z":3}]}' \
    | tr -d '\r' | sed -n 's/^X-Jaws-Request-Id: //Ip')
[ -n "$rid" ] || { echo "no X-Jaws-Request-Id on the /query response"; exit 1; }
echo "traced request $rid"

# 64 closed-loop clients against a queue bound of 8: shedding is expected
# and fine; any 5xx or transport error fails the run (jawsload exits 1).
# Enough requests that the trace passes 4096 events, so that a drop count
# that grows with the event count, not with lost lines, fails the guard
# below.
"$workdir/jawsload" -addr "$addr" -requests 4096 -clients 64 \
    -steps 4 -points 4 -seed 7 -min-served 1 \
    -latency-out "$artifacts/latency.jsonl" | tee "$workdir/jawsload.out"

grep -q ', 0 5xx' "$workdir/jawsload.out" || { echo "jawsload saw 5xx responses"; exit 1; }

curl -fsS -X POST "http://$addr/quitquitquit" >/dev/null
wait "$daemon_pid" || { echo "jawsd exited non-zero:"; cat "$workdir/jawsd.log"; exit 1; }

grep -q 'draining (quitquitquit)' "$workdir/jawsd.log"
served=$(sed -n 's/^served *\([0-9]*\) queries.*/\1/p' "$workdir/jawsd.log")
[ "${served:-0}" -gt 0 ] || { echo "daemon served nothing:"; cat "$workdir/jawsd.log"; exit 1; }
grep -q 'jaws_server_served_total' "$artifacts/metrics.prom"
grep -q '# HELP jaws_server_requests_total' "$artifacts/metrics.prom"
grep -q 'jaws_slo_compliance' "$artifacts/metrics.prom"
grep -q "\"request_id\":\"$rid\"" "$artifacts/jawsd.jsonl"

# The flight recorder must have mirrored decision records into the
# trace; keep them as their own reviewable artifact.
grep '"kind":"decision_record"' "$artifacts/trace.jsonl" >"$artifacts/decisions.jsonl" \
    || { echo "no decision records in the trace (flight recorder silent?)"; exit 1; }
echo "flight recorder captured $(wc -l <"$artifacts/decisions.jsonl") decision records"
grep -q 'jaws_sched_decisions_total' "$artifacts/metrics.prom"
grep -q '# HELP jaws_sched_passover_lost_race_total' "$artifacts/metrics.prom"
grep -qx 'jaws_trace_dropped_total 0' "$artifacts/metrics.prom" \
    || { echo "trace lost events: $(grep '^jaws_trace_dropped_total' "$artifacts/metrics.prom")"; exit 1; }
events=$(grep -vc '"kind":"trace_footer"' "$artifacts/trace.jsonl")
[ "$events" -gt 4096 ] || { echo "trace holds only $events events; raise -requests past 4096"; exit 1; }
echo "trace holds $events events, 0 dropped"

# The captured ID must resolve to a stitched record: the server's
# wall-clock span and the engine span it propagated the ID into.
"$workdir/jawsreport" -req "$rid" "$artifacts/trace.jsonl" | tee "$workdir/stitched.out"
grep -q "request $rid" "$workdir/stitched.out"
grep -q 'wall' "$workdir/stitched.out"
grep -q 'engine  query' "$workdir/stitched.out" || { echo "request $rid did not stitch to an engine span"; exit 1; }

# ...and through -why to its reconstructed scheduler wait chain, with
# every round accounted to a cause.
"$workdir/jawsreport" -why "$rid" "$artifacts/trace.jsonl" | tee "$workdir/why.out"
grep -q 'why query' "$workdir/why.out"
grep -q 'decision rounds in \[dispatch, done)' "$workdir/why.out"
grep -q 'conservation: causes sum to gated+queued' "$workdir/why.out" \
    || { echo "request $rid wait chain incomplete"; exit 1; }

# Full lifecycle report over the whole run as a reviewable artifact.
# The audit exit code gates the run: a truncated or drop-lossy trace
# fails here even though the report itself renders.
"$workdir/jawsreport" "$artifacts/trace.jsonl" >"$artifacts/report.txt"
grep -q 'request invariant: all' "$artifacts/report.txt"
grep -q '== wait causes' "$artifacts/report.txt"
cp "$workdir/jawsd.log" "$artifacts/jawsd.stdout.log"

echo "e2e-serve ok: $served queries served, $events trace events with 0 dropped, request $rid stitched and attributed, daemon drained cleanly"
