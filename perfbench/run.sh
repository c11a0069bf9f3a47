#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments. Build outputs, the Go build cache, Go's own config and
# telemetry files, and span files stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout root.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
bin="$out/perfbench"
(cd "$root/perfbench" && go build -buildvcs=false -o "$bin.tmp.$$" . && mv -f "$bin.tmp.$$" "$bin")
exec "$bin" --trace-out "$out/spans" "$@"
