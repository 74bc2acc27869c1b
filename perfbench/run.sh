#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it
# with the given arguments (see perfbench/README.md). Every build
# artifact, cache and temporary file, and the spans of traced runs, stay
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# The go command's caches, module path, telemetry (under the user config
# directory) and temporary files all move into $out; it builds offline
# from the checkout's sources alone.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS="-mod=mod -buildvcs=false"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
