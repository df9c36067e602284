#!/usr/bin/env bash
# Builds the measured CLIs and the perfbench harness from the checkout
# this is run in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload pass_din --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run it from the root of the checkout. Every build product, the Go
# build cache and the generated inputs stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/explore" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a DEW checkout (go.mod, cmd/ and perfbench/ required)" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/explore ./cmd/dewsim ./cmd/tracegen
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
