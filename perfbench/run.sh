#!/usr/bin/env bash
# Builds the benchmark and runs it against the checkout in the current
# directory. Arguments go to perfbench unchanged:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/: the Go build
# cache, the go command's configuration and temporary files, the benchmark
# and sasserve binaries, per-run snapshot directories (removed when a run
# ends), server logs, run reports and traces. It needs no network: the
# benchmark module replaces the repository module with the checkout, and
# the repository builds from its vendor directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" "$@"
