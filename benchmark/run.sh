#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it there with the arguments given. The build cache and temporary
# files stay inside the checkout too, so a run writes nothing outside it
# (bar the shm segments of the shm workloads, which shmfab puts in /dev/shm
# and removes). The first run in a checkout compiles everything; later ones
# find the binary up to date.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
