#!/usr/bin/env bash
# The guard that keeps the reporting tier one of each (DESIGN.md §20,
# "Reporting tier"): one histogram type, no second statistics type, one
# decoder of trace events (obs.ScanTrace), one order statistic
# (obs.Quantile) and the six binaries. benchmark/ is its own module with
# its own harness statistics; internal/oracle/ holds reference models,
# which restate production arithmetic on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."

scope=('*.go' ':!*_test.go' ':!benchmark' ':!internal/oracle')
bad=""
flag() { # flag <what is wrong> <offending lines>
	[ -z "$2" ] || bad+="$1:"$'\n'"$2"$'\n'
}

hist=$(git grep --untracked -nE '^type Histogram\b' -- "${scope[@]}" || true)
[ "$(printf '%s\n' "$hist" | grep -c .)" = 1 ] ||
	flag "want exactly one 'type Histogram' (obs.Histogram)" "${hist:-none found}"
flag "a second statistics type (count into obs.Histogram; smooth with sched's ewma)" \
	"$(git grep --untracked -nE '^type (Summary|EWMA)\b' -- "${scope[@]}" || true)"
for f in $(git grep --untracked -lE 'obs\.Event\b' -- "${scope[@]}" ':!internal/obs' || true); do
	flag "decodes trace events outside internal/obs (read the trace with obs.ScanTrace)" \
		"$(grep -nE 'json\.(Unmarshal|NewDecoder)\(|bufio\.NewScanner\(' "$f" | sed "s|^|$f:|" || true)"
done
flag "a hand-computed percentile in cmd/ (use obs.Quantile)" \
	"$(git grep --untracked -nE 'percentile\(' -- 'cmd/*.go' ':!*_test.go' || true)"
want="jaws jawsbench jawscheck jawsd jawsload jawsreport testdata"
got=$(ls cmd | tr '\n' ' ' | sed 's/ $//')
[ "$got" = "$want" ] || flag "cmd/ holds other than the six binaries" "want: $want"$'\n'"got:  $got"

if [ -n "$bad" ]; then
	echo "check-reporting:"
	printf '%s' "$bad"
	exit 1
fi
echo "check-reporting: ok (one histogram, one trace decoder, one quantile rank, 6 binaries)"
