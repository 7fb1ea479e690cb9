#!/bin/sh
# Protocol + recovery smoke test for `dpnet_cli serve`: a request stream
# on stdin gets one JSON response line per frame, malformed frames are
# answered with sanitized taxonomy codes, the shutdown artifacts
# reconcile through `audit verify`, and a clean restart against the same
# journal resumes every analyst's spend exactly.
# Usage: test_serve.sh <path-to-dpnet_cli>
set -eu

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" gen "$WORK/t.dpnt" --seed 11 >/dev/null

echo "== request stream: ok, refusal, malformed, unknown query =="
cat >"$WORK/req1" <<'EOF'
{"id":1,"analyst":"alice","query":"count","eps":0.5}
{"id":2,"analyst":"bob","query":"count-tcp","eps":0.25}
{"id":3,"analyst":"alice","query":"count","eps":0.75}
this is not json
{"id":4,"analyst":"alice","query":"haruspicy","eps":0.125}
{"id":5,"analyst":"al!ce","query":"count","eps":0.125}
EOF
"$CLI" serve "$WORK/t.dpnt" --cap 1 --threads 2 --seed 3 \
  --journal "$WORK/j.jsonl" --ledger "$WORK/ledger.json" \
  --trace-out "$WORK/trace.json" --ops-log "$WORK/ops.jsonl" \
  --ops-snapshot "$WORK/ops.json" --log-level debug \
  <"$WORK/req1" >"$WORK/resp1" 2>"$WORK/err1"

[ "$(wc -l <"$WORK/resp1")" -eq 6 ] || {
  echo "expected 6 response lines" >&2
  cat "$WORK/resp1" >&2
  exit 1
}
grep -q '"id":1,"status":"ok"' "$WORK/resp1"
grep -q '"id":2,"status":"ok"' "$WORK/resp1"
# Request 3 would push alice past her 1.0 cap: refused, retryable.
grep '"id":3' "$WORK/resp1" | grep -q '"error":"budget-exhausted"'
grep '"id":3' "$WORK/resp1" | grep -q '"retryable":true'
grep -q '"error":"malformed-frame"' "$WORK/resp1"
grep '"id":4' "$WORK/resp1" | grep -q '"error":"invalid-query"'
# A parseable frame with a bad analyst charset keeps its id on the
# error (correlation survives), but no analyst is echoed back.
grep '"id":5' "$WORK/resp1" | grep -q '"error":"invalid-query"'
grep '"id":5' "$WORK/resp1" | grep -q '"analyst":""'
# The old stderr narration is now the structured ops log: one
# dpnet.log.v1 JSONL line per lifecycle transition (file sink here via
# --ops-log; stderr is the default sink and stays silent with a file).
[ ! -s "$WORK/err1" ] || { echo "stderr not empty with --ops-log" >&2; exit 1; }
head -1 "$WORK/ops.jsonl" | grep -q '"schema":"dpnet.log.v1"'
grep '"kind":"serve.started"' "$WORK/ops.jsonl" | grep -q '"level":"info"'
grep '"kind":"serve.stopped"' "$WORK/ops.jsonl" \
  | grep '"detail":"frames=6 sessions=2"' | grep -q '"eps":0.75'
# At debug level every admission decision is witnessed with its label
# and requested epsilon; refusals log at warn.
grep '"kind":"serve.admit"' "$WORK/ops.jsonl" \
  | grep '"label":"alice"' | grep -q '"eps":0.5'
grep '"kind":"serve.reject"' "$WORK/ops.jsonl" | grep -q '"level":"warn"'

echo "== ops snapshot survives shutdown =="
grep -q '"schema":"dpnet.ops.v1"' "$WORK/ops.json"
grep -q '"analysts"' "$WORK/ops.json"

echo "== shutdown artifacts reconcile exactly =="
"$CLI" audit verify "$WORK/j.jsonl" --audit "$WORK/ledger.json" \
  --trace "$WORK/trace.json" >"$WORK/verify.out"
grep -q "journal ok" "$WORK/verify.out"
grep -q "reconciled: journal eps == ledger eps == trace eps (exact)" \
  "$WORK/verify.out"
"$CLI" audit tail "$WORK/j.jsonl" --json | grep -q '"kind":"refusal"'

echo "== responses never carry record contents =="
# Telemetry and the wire protocol carry accounting metadata only; the
# trace payloads must not surface anywhere in the server's output.
for f in resp1 j.jsonl ledger.json trace.json ops.jsonl ops.json; do
  if grep -qE '"(payload|src_ip|dst_ip)"' "$WORK/$f"; then
    echo "record contents leaked into $f" >&2
    exit 1
  fi
done

echo "== restart resumes spend; crash never refunds =="
cat >"$WORK/req2" <<'EOF'
{"id":10,"analyst":"alice","query":"count","eps":0.75}
{"id":11,"analyst":"alice","query":"count-udp","eps":0.5}
{"id":12,"analyst":"carol","query":"count","eps":0.25}
EOF
"$CLI" serve "$WORK/t.dpnt" --cap 1 --threads 2 --seed 3 \
  --journal "$WORK/j.jsonl" \
  <"$WORK/req2" >"$WORK/resp2" 2>"$WORK/err2"
grep '"kind":"serve.recovered"' "$WORK/err2" \
  | grep '"label":"alice"' | grep -q '"eps":0.5'
grep '"kind":"serve.recovered"' "$WORK/err2" \
  | grep '"label":"bob"' | grep -q '"eps":0.25'
# Recovered 0.5 + 0.75 would breach alice's cap: the crash refunded
# nothing.
grep '"id":10' "$WORK/resp2" | grep -q '"error":"budget-exhausted"'
# An exact fit against the recovered spend still succeeds.
grep '"id":11' "$WORK/resp2" | grep -q '"status":"ok"'
grep '"id":12' "$WORK/resp2" | grep -q '"status":"ok"'
grep '"kind":"serve.stopped"' "$WORK/err2" | grep -q '"eps":1.5'
"$CLI" audit verify "$WORK/j.jsonl" | grep -q "journal ok"

echo "== the appended journal tails and still detects truncation =="
# The restart published recovery's charges, then appended one batch per
# response; tail shows event records only, never the batch closing lines.
"$CLI" audit tail "$WORK/j.jsonl" --last 3 --json >"$WORK/tail3"
[ "$(wc -l <"$WORK/tail3")" -eq 3 ] || {
  echo "expected 3 tailed events" >&2
  cat "$WORK/tail3" >&2
  exit 1
}
[ "$(grep -c '"kind"' "$WORK/tail3")" -eq 3 ]
sed '$d' "$WORK/j.jsonl" >"$WORK/j.cut.jsonl"
rc=0
"$CLI" audit verify "$WORK/j.cut.jsonl" >/dev/null 2>"$WORK/err.cut" || rc=$?
[ "$rc" -eq 1 ] || {
  echo "expected exit 1 for a journal missing its final line, got $rc" >&2
  exit 1
}
grep -q "truncated" "$WORK/err.cut"

echo "== a tampered journal refuses startup =="
python3 -c "
data = bytearray(open('$WORK/j.jsonl', 'rb').read())
data[len(data) // 2] ^= 0x40
open('$WORK/j.flip.jsonl', 'wb').write(bytes(data))
" 2>/dev/null || {
  cp "$WORK/j.jsonl" "$WORK/j.flip.jsonl"
  jsize=$(wc -c <"$WORK/j.jsonl")
  printf '\377' | dd of="$WORK/j.flip.jsonl" bs=1 seek="$((jsize / 2))" \
    conv=notrunc 2>/dev/null
}
rc=0
"$CLI" serve "$WORK/t.dpnt" --journal "$WORK/j.flip.jsonl" \
  </dev/null >/dev/null 2>"$WORK/err3" || rc=$?
[ "$rc" -eq 1 ] || { echo "expected refused startup, got $rc" >&2; exit 1; }
grep -q "^error: " "$WORK/err3"

echo "== serve help =="
"$CLI" help serve | grep -q "usage: dpnet_cli serve"

echo "CLI-SERVE-OK"
