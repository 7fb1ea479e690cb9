#!/bin/sh
# Soak + crash drill for `dpnet_cli serve`:
#
#   phase 1  every dispatch faulted (DPNET_FAILPOINTS) — the server
#            answers each frame with a sanitized "internal" error,
#            charges nothing, and keeps serving;
#   phase 2  every response write faulted — responses are dropped but
#            the charges stand (the flush-before-write contract);
#   phase 3  kill -9 mid-session, then restart against the surviving
#            journal — every observed response's charge is recovered
#            exactly, the books still reconcile through
#            `dpnet_cli audit verify` (the hard gate), and the surviving
#            ops log's admit lines match the journal's charges analyst
#            by analyst (journal + ops log are the incident record).
#
# Usage: test_serve_soak.sh <path-to-dpnet_cli> \
#          [path-to-bench_schema_check] [artifact-dir]
# With bench_schema_check, the surviving ops log and snapshot are
# hard-gated against their schemas.  With an artifact dir, the drill's
# journal/ledger/trace/ops-log/snapshot survive for the offline
# `dpnet_cli audit verify` gate (the serve-chaos CI job).
set -eu

CLI="$1"
SCHEMA_CHECK="${2:-}"
ARTIFACTS="${3:-}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

"$CLI" gen "$WORK/t.dpnt" --seed 5 >/dev/null

req() {
  printf '{"id":%d,"analyst":"%s","query":"count","eps":%s}\n' "$1" "$2" "$3"
}

echo "== phase 1: dispatch faults — sanitized errors, zero charge =="
{
  i=1
  while [ "$i" -le 20 ]; do
    req "$i" "analyst$((i % 4))" 0.125
    i=$((i + 1))
  done
} >"$WORK/soak.req"
DPNET_FAILPOINTS="serve.dispatch=throw" \
  "$CLI" serve "$WORK/t.dpnt" --threads 4 \
  <"$WORK/soak.req" >"$WORK/soak.resp" 2>"$WORK/soak.err"
[ "$(wc -l <"$WORK/soak.resp")" -eq 20 ] || {
  echo "expected 20 soak responses" >&2
  exit 1
}
[ "$(grep -c '"error":"internal"' "$WORK/soak.resp")" -eq 20 ] || {
  echo "faulted dispatches must all answer internal" >&2
  cat "$WORK/soak.resp" >&2
  exit 1
}
grep '"kind":"serve.stopped"' "$WORK/soak.err" | grep -q '"eps":0,'

echo "== phase 2: write faults — responses dropped, charges stand =="
{ req 1 alice 0.25; req 2 bob 0.25; } >"$WORK/w.req"
DPNET_FAILPOINTS="serve.session.write=throw" \
  "$CLI" serve "$WORK/t.dpnt" --threads 2 \
  <"$WORK/w.req" >"$WORK/w.resp" 2>"$WORK/w.err"
[ ! -s "$WORK/w.resp" ] || {
  echo "faulted writes must drop responses" >&2
  exit 1
}
grep '"kind":"serve.stopped"' "$WORK/w.err" | grep -q '"eps":0.5'

echo "== phase 3: kill -9 mid-session, restart, reconcile =="
mkfifo "$WORK/req.pipe"
"$CLI" serve "$WORK/t.dpnt" --cap 1 --threads 2 \
  --journal "$WORK/j.jsonl" --ops-log "$WORK/ops.jsonl" \
  --ops-snapshot "$WORK/ops.json" --log-level debug \
  --ops-snapshot-interval-ms 0 \
  <"$WORK/req.pipe" >"$WORK/resp" 2>"$WORK/err" &
SERVER_PID=$!
exec 3>"$WORK/req.pipe"

req 1 alice 0.25 >&3
req 2 bob 0.25 >&3
req 3 alice 0.25 >&3
# The journal is flushed before each response is written, so once all
# three responses are observed their charges are durable — whatever
# happens to the process next.
tries=0
while [ "$(wc -l <"$WORK/resp")" -lt 3 ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || {
    echo "timed out waiting for responses" >&2
    cat "$WORK/err" >&2
    exit 1
  }
  sleep 0.1
done
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
exec 3>&-
[ "$(grep -c '"status":"ok"' "$WORK/resp")" -eq 3 ]

echo "== the incident record survives SIGKILL: ops log matches journal =="
# The journal is flushed before each response and the ops log line by
# line, so even an uncatchable kill leaves both complete.  Every request
# in this phase was admitted and answered ok, so per analyst the debug
# serve.admit lines and the journal's charge records carry the same
# epsilons.
head -1 "$WORK/ops.jsonl" | grep -q '"schema":"dpnet.log.v1"'
eps_of() {  # <file> <kind> <analyst>: sorted eps of matching lines
  grep "\"kind\":\"$2\"" "$1" | grep "\"label\":\"$3\"" \
    | sed 's/.*"eps":\([^,}]*\).*/\1/' | sort
}
[ "$(grep -c '"kind":"charge"' "$WORK/j.jsonl")" -eq 3 ]
for analyst in alice bob; do
  admits="$(eps_of "$WORK/ops.jsonl" serve.admit "$analyst")"
  charges="$(eps_of "$WORK/j.jsonl" charge "$analyst")"
  [ -n "$charges" ] && [ "$admits" = "$charges" ] || {
    echo "ops log admits for $analyst ($admits) disagree with" \
         "journal charges ($charges)" >&2
    exit 1
  }
done
# The snapshot is published by atomic rename: whatever instant the kill
# landed, the file on disk is a complete dpnet.ops.v1 document, and no
# orphaned temp file means a publish was torn mid-rename.
grep -q '"schema":"dpnet.ops.v1"' "$WORK/ops.json"
grep -q '"analysts"' "$WORK/ops.json"
if [ -n "$SCHEMA_CHECK" ]; then
  "$SCHEMA_CHECK" "$WORK/ops.json" "$WORK/ops.jsonl"
fi

{
  req 10 alice 0.75   # 0.5 recovered + 0.75 breaches the cap: refused
  req 11 alice 0.5    # exact fit against the recovered spend
  req 12 carol 0.25
} >"$WORK/req2"
"$CLI" serve "$WORK/t.dpnt" --cap 1 --threads 2 \
  --journal "$WORK/j.jsonl" --ledger "$WORK/ledger.json" \
  --trace-out "$WORK/trace.json" \
  <"$WORK/req2" >"$WORK/resp2" 2>"$WORK/err2"
grep '"kind":"serve.recovered"' "$WORK/err2" \
  | grep '"label":"alice"' | grep -q '"eps":0.5'
grep '"kind":"serve.recovered"' "$WORK/err2" \
  | grep '"label":"bob"' | grep -q '"eps":0.25'
grep '"id":10' "$WORK/resp2" | grep -q '"error":"budget-exhausted"'
grep '"id":11' "$WORK/resp2" | grep -q '"status":"ok"'
grep '"id":12' "$WORK/resp2" | grep -q '"status":"ok"'
grep '"kind":"serve.stopped"' "$WORK/err2" | grep -q '"eps":1.5'

# The hard gate: the post-crash journal, ledger, and trace agree on
# every epsilon — exactly.
"$CLI" audit verify "$WORK/j.jsonl" --audit "$WORK/ledger.json" \
  --trace "$WORK/trace.json" >"$WORK/verify.out"
grep -q "journal ok" "$WORK/verify.out"
grep -q "reconciled: journal eps == ledger eps == trace eps (exact)" \
  "$WORK/verify.out"

if [ -n "$ARTIFACTS" ]; then
  mkdir -p "$ARTIFACTS"
  cp "$WORK/j.jsonl" "$ARTIFACTS/journal.jsonl"
  cp "$WORK/ledger.json" "$WORK/trace.json" "$ARTIFACTS/"
  # The incident bundle from the killed server: the ops log and the
  # last published snapshot ride along with the journal.
  cp "$WORK/ops.jsonl" "$ARTIFACTS/ops-log.jsonl"
  cp "$WORK/ops.json" "$ARTIFACTS/ops-snapshot.json"
fi

echo "CLI-SERVE-SOAK-OK"
