#!/usr/bin/env bash
# Builds sybilbench once and runs it in the foreground, passing its
# arguments through:
#
#   bash benchmark/run.sh --workload campaign-saturate --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write — the Go build cache, the
# binary, spools, trace files — stays under benchmark/out. No process
# outlives this script: the binary is one process with a watchdog, and
# the script fails if it can still see a child when the binary returns.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/bin/sybilbench" .)

rc=0
"$out/bin/sybilbench" -out "$out" "$@" || rc=$?

if pgrep -P $$ >/dev/null; then
	echo "run.sh: a child process is still running" >&2
	exit 70
fi
exit "$rc"
