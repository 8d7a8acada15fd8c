#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash divbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, WAL directories) stays
# under .bench_build/ in the current directory. The build is offline:
# the benchmark module depends only on the enclosing repository module.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/divbench/go.mod" ]]; then
	echo "divbench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/divbench" && go build -o "$out/divbench" .)
exec "$out/divbench" -workdir "$out" "$@"
