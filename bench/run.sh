#!/usr/bin/env bash
# Builds the harness from source and runs it from the repository root; the
# harness then builds ./cmd/mqdp-server itself. The Go build cache lives in
# bench/out/, so nothing is read or written outside the checkout, and the
# build never reaches for the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out/bin"
export GOCACHE="$here/out/.gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o out/bin/bench .)
cd "$here/.."
exec "$here/out/bin/bench" "$@"
