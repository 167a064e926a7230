#!/usr/bin/env bash
# The guard that keeps the virtual-time path free of fused multiply-adds.
# The Go spec lets a compiler fuse x*y + z into one FMA instruction unless
# an explicit float64(...) conversion forces the product to round; amd64
# never fuses, arm64, ppc64le and riscv64 do. A fused site rounds
# differently from amd64, so the byte-identical artifacts and the oracle's
# strict float equality (DESIGN.md §11) would hold on one architecture
# only.
#
# The script cross-compiles cmd/jawsd and the test binaries of the oracle,
# field, query and engine packages for each of those architectures (no
# emulator needed) and disassembles every function of the packages that
# compute a decision, a sample or a trace — sched, oracle, field, query,
# engine, workload, disk, vclock and prefetch under jaws/internal; any
# FMA-family instruction fails it, printed with its function. The test
# binaries are held to the same rule because their tests mirror the kernels
# bit for bit, draw inputs with the kernels' own rounding, or (the oracle's
# differential suite and random op logs) compare floats with ==. s390x is
# left out until its mnemonics are confirmed.
#
#   ./scripts/check_fma.sh        (or: make check-fma)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# arm64 and riscv64: FMADDD/FMSUBD/FNMADDD/FNMSUBD (and the S forms);
# ppc64le: FMADD/FMSUB/FNMADD/FNMSUB (and the S forms, with or without CC).
ops='F(N)?M(ADD|SUB)(D|S)?(CC)?'
funcs='^jaws/internal/(sched|oracle|field|query|engine|workload|disk|vclock|prefetch)\.'

bad=""
for arch in arm64 ppc64le riscv64; do
	for cmd in jawsd oracle.test field.test query.test engine.test; do
		bin="$tmp/$cmd.$arch"
		# pkg is the package whose absence from the disassembly would make
		# the check pass vacuously.
		if [ "$cmd" = jawsd ]; then
			pkg=sched
			GOOS=linux GOARCH=$arch go build -o "$bin" ./cmd/jawsd
		else
			pkg=${cmd%.test}
			GOOS=linux GOARCH=$arch go test -c -o "$bin" "./internal/$pkg"
		fi
		go tool objdump -s "$funcs" "$bin" >"$bin.s"
		grep -q "^TEXT jaws/internal/$pkg\\." "$bin.s" || {
			echo "check-fma: no jaws/internal/$pkg function in $cmd for $arch"
			exit 1
		}
		hits=$(awk -v ops="^($ops)\$" '
			/^TEXT / { fn = $2; next }
			{ for (i = 1; i <= NF; i++) if ($i ~ ops) { print fn ": " $i; break } }' "$bin.s" |
			sort | uniq -c)
		[ -z "$hits" ] || bad+="$arch $cmd:"$'\n'"$hits"$'\n'
	done
done

if [ -n "$bad" ]; then
	echo "check-fma: fused multiply-adds (wrap the product in float64(...)):"
	printf '%s' "$bad"
	exit 1
fi
echo "check-fma: ok (no fused multiply-add in $funcs of jawsd and the oracle, field, query and engine tests on arm64, ppc64le, riscv64)"
