#!/bin/sh
# Non-test Go lines outside bench/ — the count every simplicity PR cites.
cd "$(dirname "$0")/.." && find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | tail -1
