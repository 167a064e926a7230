#!/usr/bin/env bash
# The guard that keeps the assembler one (DESIGN.md §3, "One assembler"):
# outside internal/system, no non-test code turns a description into a
# store, a cache, a scheduler, an engine or a fault injector (which needs
# to know which node it serves: system.Config.Node) by calling the layers'
# constructors. Two exceptions, both by design: internal/oracle/diff.go's
# StandardTarget (the production side of the differential comparison, which
# sweeps parameters the node description cannot name), and a caller that
# adjusts the engine config system.EngineConfig returned before handing it
# to engine.New (the ablation study's scheduler handle, the oracle's
# recorder). benchmark/ holds its own copy under a wiring-drift test until
# the benchmark is rebuilt on internal/system.
set -euo pipefail
cd "$(dirname "$0")/.."

calls='engine\.New(Session)?\(|sched\.New(JAWS|LifeRaft|NoShare|QoS)\(|cache\.New[A-Za-z]*\(|store\.Open\(|fault\.New\('
scope=('*.go' ':!*_test.go' ':!benchmark' ':!internal/system' ':!internal/oracle/diff.go')

# Allowed: engine.New on sys.EngineConfig(...) directly, or on a variable ec
# the same file assigned from sys.EngineConfig(...).
bad=$(git grep --untracked -nE "$calls" -- "${scope[@]}" |
	grep -vE 'engine\.New\((ec|sys\.EngineConfig\([a-z]+\))\)$' || true)
for f in $(git grep --untracked -lE 'engine\.New\(ec\)' -- "${scope[@]}" || true); do
	grep -q 'ec := sys\.EngineConfig(' "$f" ||
		bad+=$'\n'"$f: engine.New(ec) on a config that is not system.EngineConfig's"
done
if [ -n "$bad" ]; then
	echo "check-assembly: constructor calls outside internal/system (build through system.Open / NewScheduler / EngineConfig):"
	echo "$bad"
	exit 1
fi
echo "check-assembly: ok ($(git grep --untracked -nE "$calls" -- "${scope[@]}" | wc -l) engine.New calls on a system engine config)"
