#!/usr/bin/env bash
# Builds laperm-perfbench from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload sim-dtbl --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, service
# cache, trace files) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench" "$out/tmp"

# Keep the go command's cache, module and config files inside the checkout,
# and never let it reach for a network toolchain or module proxy.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/laperm-perfbench" .)
exec "$out/laperm-perfbench" -workdir "$out/perfbench" "$@"
