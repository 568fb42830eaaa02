#!/bin/sh
# Build the benchmark, then become it: no `go run` (which leaves a child
# behind when killed), no background job, no spawned server.  Everything
# the build writes stays under bench/out/, inside the checkout.
#
#   sh bench/run.sh                 every workload, untraced then traced, as tables
#   sh bench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
#   sh bench/run.sh -aa 5           A/A noise check
set -eu
dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
out="$dir/out"
bin="$out/ldl1bench"
mkdir -p "$out/tmp"

# Always build: go build is incremental against the cache kept under
# bench/out/, and it alone knows every input of the binary.
(cd "$dir" && env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$bin" .)
exec "$bin" -out "$out" "$@"
