#!/bin/sh
# Error-path regression test for dpnet_cli: malformed inputs must produce
# ONE sanitized "error:" line on stderr and a nonzero exit — no crashes,
# no stack traces, no record contents in the diagnostic.
# Usage: test_cli_errors.sh <path-to-dpnet_cli>
set -eu

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# expect_error <expected-substring> <cli args...>
# Runs the CLI, asserts exit 1, exactly one stderr line, and that the
# line starts with "error:" and mentions the expected substring.
expect_error() {
  want="$1"
  shift
  rc=0
  "$CLI" "$@" >"$WORK/out" 2>"$WORK/err" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "expected failure: $CLI $*" >&2
    exit 1
  fi
  lines=$(wc -l <"$WORK/err")
  if [ "$lines" -ne 1 ]; then
    echo "expected one stderr line for: $CLI $* (got $lines)" >&2
    cat "$WORK/err" >&2
    exit 1
  fi
  grep -q "^error: " "$WORK/err" || {
    echo "stderr not sanitized one-liner for: $CLI $*" >&2
    cat "$WORK/err" >&2
    exit 1
  }
  grep -q "$want" "$WORK/err" || {
    echo "stderr missing '$want' for: $CLI $*" >&2
    cat "$WORK/err" >&2
    exit 1
  }
}

echo "== json fed as a trace container =="
printf '{"packets": [1, 2, 3], "oops": "not a trace"}\n' >"$WORK/bogus.dpnt"
expect_error "magic" stats "$WORK/bogus.dpnt"
# The secret-looking JSON content must not leak into the diagnostic.
if grep -q "packets" "$WORK/err"; then
  echo "diagnostic leaked input contents" >&2
  exit 1
fi

echo "== truncated container =="
"$CLI" gen "$WORK/t.dpnt" --seed 7 >/dev/null
size=$(wc -c <"$WORK/t.dpnt")
head -c "$((size - 11))" "$WORK/t.dpnt" >"$WORK/cut.dpnt"
expect_error "record" stats "$WORK/cut.dpnt"

echo "== bit-flipped container =="
python3 -c "
import sys
data = bytearray(open('$WORK/t.dpnt', 'rb').read())
data[len(data) // 2] ^= 0x40
open('$WORK/flip.dpnt', 'wb').write(bytes(data))
" 2>/dev/null || {
  # No python: overwrite a mid-file byte with dd instead.
  cp "$WORK/t.dpnt" "$WORK/flip.dpnt"
  printf '\377' | dd of="$WORK/flip.dpnt" bs=1 seek="$((size / 2))" \
    conv=notrunc 2>/dev/null
}
expect_error "error:" stats "$WORK/flip.dpnt"

echo "== missing file =="
expect_error "cannot open" stats "$WORK/does-not-exist.dpnt"

echo "== malformed numeric flags exit 2 =="
rc=0
"$CLI" gen "$WORK/x.dpnt" --seed banana 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for bad --seed" >&2; exit 1; }
grep -q "unsigned integer" "$WORK/err"

rc=0
"$CLI" analyze "$WORK/t.dpnt" count --eps "1.0x" 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for bad --eps" >&2; exit 1; }
grep -q "expects a number" "$WORK/err"

echo "== analyze on corrupt input is contained too =="
expect_error "error:" analyze "$WORK/cut.dpnt" count --eps 0.5

echo "== robustness metrics are listed =="
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 | grep -q "queries.aborted"
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 | grep -q "records.quarantined"
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --json | grep -q "deadline.exceeded"
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --json | grep -q "faults.injected"

echo "== metrics machine-readable modes =="
# --json: stdout is exactly one JSON document (starts with '{'), with the
# percentile fields present.
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --json >"$WORK/m.json"
head -c 1 "$WORK/m.json" | grep -q '{' || {
  echo "metrics --json stdout is not a pure JSON document" >&2
  exit 1
}
grep -q '"p50"' "$WORK/m.json"
grep -q '"p99"' "$WORK/m.json"
# --prometheus: pure text exposition — every line is a comment or
# `name value`, with TYPE declarations and histogram series present.
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --prometheus >"$WORK/m.prom"
grep -q '^# TYPE dpnet_queries_executed counter$' "$WORK/m.prom"
grep -q '^# TYPE dpnet_query_wall_ms histogram$' "$WORK/m.prom"
grep -q '^dpnet_query_wall_ms_bucket{le="+Inf"} ' "$WORK/m.prom"
grep -q '^dpnet_query_wall_ms_count ' "$WORK/m.prom"
grep -q '^dpnet_op_wall_ms_noisy_count_sum ' "$WORK/m.prom"
if grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+].*)$' \
    "$WORK/m.prom" | grep -q .; then
  echo "metrics --prometheus emitted a non-exposition line" >&2
  exit 1
fi

echo "== unknown metrics flags are rejected, not ignored =="
rc=0
"$CLI" metrics "$WORK/t.dpnt" --prometheous 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for unknown flag" >&2; exit 1; }
grep -q "unknown flag" "$WORK/err"
rc=0
"$CLI" metrics "$WORK/t.dpnt" --json --prometheus 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || {
  echo "expected exit 2 for --json + --prometheus" >&2
  exit 1
}
grep -q "mutually exclusive" "$WORK/err"

echo "== trace --chrome writes a loadable trace_event file =="
"$CLI" trace "$WORK/t.dpnt" service-mix --eps 0.1 --threads 4 \
  --chrome "$WORK/t.chrome.json" >/dev/null
grep -q '"traceEvents"' "$WORK/t.chrome.json"
grep -q '"ph":"X"' "$WORK/t.chrome.json"
grep -q '"name":"analyst"' "$WORK/t.chrome.json"
# Which workers pick up tasks is scheduler-dependent (a single-core host
# can drain every part on one worker), but some worker lane must exist.
grep -q '"name":"worker ' "$WORK/t.chrome.json"
rc=0
"$CLI" trace "$WORK/t.dpnt" count --chrom typo.json 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for unknown trace flag" >&2; exit 1; }

echo "== audit journal error paths =="
"$CLI" trace "$WORK/t.dpnt" count --eps 0.5 --journal "$WORK/j.jsonl" \
  >/dev/null

# Unknown flags are rejected with exit 2, not silently ignored.
rc=0
"$CLI" audit verify "$WORK/j.jsonl" --frobnicate 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for unknown audit flag" >&2; exit 1; }
grep -q "unknown flag" "$WORK/err"
rc=0
"$CLI" audit tail "$WORK/j.jsonl" --laste 3 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for unknown tail flag" >&2; exit 1; }
grep -q "unknown flag" "$WORK/err"

# Missing journal files are a sanitized one-liner.
expect_error "cannot open" audit verify "$WORK/no-such-journal.jsonl"
expect_error "cannot open" audit tail "$WORK/no-such-journal.jsonl"

# A bit-flipped journal breaks the hash chain.
python3 -c "
import sys
data = bytearray(open('$WORK/j.jsonl', 'rb').read())
data[len(data) // 2] ^= 0x40
open('$WORK/j.flip.jsonl', 'wb').write(bytes(data))
" 2>/dev/null || {
  cp "$WORK/j.jsonl" "$WORK/j.flip.jsonl"
  jsize=$(wc -c <"$WORK/j.jsonl")
  printf '\377' | dd of="$WORK/j.flip.jsonl" bs=1 seek="$((jsize / 2))" \
    conv=notrunc 2>/dev/null
}
expect_error "j.flip.jsonl" audit verify "$WORK/j.flip.jsonl"

# A truncated journal is caught too (cut mid-record).
jsize=$(wc -c <"$WORK/j.jsonl")
head -c "$((jsize - 7))" "$WORK/j.jsonl" >"$WORK/j.cut.jsonl"
expect_error "j.cut.jsonl" audit verify "$WORK/j.cut.jsonl"

# Reconciliation against a different session's ledger fails exactly.
"$CLI" trace "$WORK/t.dpnt" count --eps 0.25 --json >"$WORK/other.json"
expect_error "ledger eps" audit verify "$WORK/j.jsonl" \
  --audit "$WORK/other.json"
expect_error "trace eps" audit verify "$WORK/j.jsonl" \
  --trace "$WORK/other.json"

echo "== serve numeric flags share the uniform validation =="
# The hoisted numeric-flag helper: malformed values exit 2 with the same
# `error: --flag expects ...` shape everywhere, serve included.
for bad in "--threads two" "--queue -3" "--deadline-ms soon" \
    "--max-sessions 1.5" "--seed 0x2a"; do
  rc=0
  # shellcheck disable=SC2086  # word-splitting the pair is intended
  "$CLI" serve "$WORK/t.dpnt" $bad </dev/null 2>"$WORK/err" || rc=$?
  [ "$rc" -eq 2 ] || {
    echo "expected exit 2 for serve $bad (got $rc)" >&2
    cat "$WORK/err" >&2
    exit 1
  }
  grep -q "^error: .* expects an unsigned integer" "$WORK/err"
done
rc=0
"$CLI" serve "$WORK/t.dpnt" --budget lots </dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for bad --budget" >&2; exit 1; }
grep -q "^error: --budget expects a number" "$WORK/err"
rc=0
"$CLI" serve "$WORK/t.dpnt" --cap "0.5kg" </dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || { echo "expected exit 2 for bad --cap" >&2; exit 1; }
grep -q "^error: --cap expects a number" "$WORK/err"

echo "== unknown serve flags are rejected, not ignored =="
# A removed flag is an unknown flag too.
for bad in "--jurnal j.jsonl" "--journal-capacity 8"; do
  rc=0
  # shellcheck disable=SC2086  # word-splitting the pair is intended
  "$CLI" serve "$WORK/t.dpnt" $bad </dev/null 2>"$WORK/err" || rc=$?
  [ "$rc" -eq 2 ] || {
    echo "expected exit 2 for unknown serve flag $bad (got $rc)" >&2
    exit 1
  }
  grep -q "unknown flag" "$WORK/err"
done

echo "== untouched server ops gauges stay out of prometheus =="
# No server ran in this process, so the registered-but-untouched serve.*
# series are suppressed from the exposition (scrapes of engine-only
# processes stay clean) while the JSON snapshot still lists the full
# ops vocabulary.
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --prometheus >"$WORK/m2.prom"
if grep -q '^dpnet_serve_' "$WORK/m2.prom"; then
  echo "untouched serve.* series leaked into the exposition" >&2
  grep '^dpnet_serve_' "$WORK/m2.prom" >&2
  exit 1
fi
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --json | grep -q "serve.sessions.active"
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --json | grep -q "serve.queue.depth"
# journal.events.dropped: the silent-drop counter is a first-class
# metric now (engine runs never drop, so it reads zero here).
"$CLI" metrics "$WORK/t.dpnt" --eps 0.5 --json \
  | grep -q "journal.events.dropped"

echo "== audit exit-code contract: 0 ok / 1 failure / 2 usage =="
rc=0
"$CLI" audit verify "$WORK/j.jsonl" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { echo "expected exit 0 for clean verify" >&2; exit 1; }
rc=0
"$CLI" audit tail "$WORK/j.jsonl" --last 2 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { echo "expected exit 0 for clean tail" >&2; exit 1; }
rc=0
"$CLI" audit verify "$WORK/j.flip.jsonl" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || {
  echo "expected exit 1 for broken hash chain (got $rc)" >&2
  exit 1
}
rc=0
"$CLI" audit verify "$WORK/j.jsonl" --audit "$WORK/other.json" \
  >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || {
  echo "expected exit 1 for ledger mismatch (got $rc)" >&2
  exit 1
}
rc=0
"$CLI" audit verify "$WORK/no-such-journal.jsonl" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || {
  echo "expected exit 1 for unreadable journal (got $rc)" >&2
  exit 1
}
rc=0
"$CLI" audit >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "expected usage exit 2 (got $rc)" >&2; exit 1; }
rc=0
"$CLI" audit frobnicate "$WORK/j.jsonl" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || {
  echo "expected exit 2 for unknown audit mode (got $rc)" >&2
  exit 1
}

echo "CLI-ERRORS-OK"
