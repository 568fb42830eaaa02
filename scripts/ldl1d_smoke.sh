#!/usr/bin/env bash
# End-to-end smoke test for ldl1d: build the server, boot it against the
# shipped programs/, run a scripted session over the HTTP surface (query,
# assert, re-query, stats), then shut it down gracefully and check it
# drained cleanly.  One answer body is compared with a committed file byte
# for byte, which pins the wire format through the real binary.  Run from
# the repo root; CI runs it on every push.
set -euo pipefail

ADDR="127.0.0.1:${LDL1D_PORT:-8370}"
BASE="http://$ADDR"
BIN="${TMPDIR:-/tmp}/ldl1d-smoke"
LOG="${TMPDIR:-/tmp}/ldl1d-smoke.log"
BODY="${TMPDIR:-/tmp}/ldl1d-smoke.body"

say()  { printf '\n== %s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*" >&2; [ -f "$LOG" ] && sed 's/^/  ldl1d: /' "$LOG" >&2; exit 1; }

# jget JSON KEY: pull an integer field out of a flat JSON response
# without requiring jq on the host.
jget() { printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" | head -1; }

say "build"
go build -o "$BIN" ./cmd/ldl1d

say "boot against programs/"
"$BIN" -addr "$ADDR" -grace 5s programs/*.ldl >"$LOG" 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    kill -0 "$SRV" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "server never became healthy"

say "query"
R=$(curl -sf "$BASE/db/family/query" -d '{"query": "ancestor(abe, W)"}') || fail "query request"
N0=$(jget "$R" count)
[ "$N0" -gt 0 ] || fail "ancestor(abe, W) returned no rows: $R"
echo "   ancestor(abe, W): $N0 rows"

say "the answer body is the committed one, byte for byte"
curl -sf "$BASE/db/family/query" -d '{"query": "ancestor(abe, W)"}' -o "$BODY" || fail "query request"
cmp "$BODY" testdata/ldl1d_ancestor_abe.json || fail "ancestor(abe, W) body differs from testdata/ldl1d_ancestor_abe.json: $(cat "$BODY")"

say "assert"
R=$(curl -sf "$BASE/db/family/assert" -d '{"facts": "parent(smoke1, smoke2). parent(smoke2, smoke3)."}') || fail "assert request"
INS=$(jget "$R" inserted)
[ "$INS" -gt 0 ] || fail "assert inserted nothing: $R"
echo "   inserted $INS facts (derived included)"

say "re-query sees the write"
R=$(curl -sf "$BASE/db/family/query" -d '{"query": "ancestor(smoke1, W)"}') || fail "re-query request"
N1=$(jget "$R" count)
[ "$N1" -eq 2 ] || fail "ancestor(smoke1, W): want 2 rows, got $N1: $R"

say "typed errors on the wire"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/db/family/query" -d '{"query": "ancestor(abe,"}')
[ "$CODE" = 400 ] || fail "parse error returned HTTP $CODE, want 400"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/db/nope/query" -d '{"query": "p(X)"}')
[ "$CODE" = 404 ] || fail "unknown db returned HTTP $CODE, want 404"

say "stats"
R=$(curl -sf "$BASE/stats") || fail "stats request"
REQ=$(jget "$R" requests)
[ "$REQ" -gt 0 ] || fail "stats reports no requests: $R"
echo "   $REQ requests served"

say "graceful shutdown"
kill -TERM "$SRV"
for i in $(seq 1 50); do
    kill -0 "$SRV" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SRV" 2>/dev/null; then fail "server still running after SIGTERM"; fi
wait "$SRV" 2>/dev/null || fail "server exited nonzero after SIGTERM"
grep -q "bye" "$LOG" || fail "server did not log a clean shutdown"
trap - EXIT

echo
echo "PASS: ldl1d smoke"
