#!/bin/sh
# CLI edge-case drill for the trace and cache tools (registered as the
# `trace_cli_smoke` ctest entry; $1 = directory with the built binaries,
# $2 = the source tree, for the committed traces under bench/traces/).
#
#  - `downsample --keep 0` is a legal edge: every stream survives with
#    zero records, stat reports them, verify stays byte-canonical, and
#    replay terminates with zero instructions.
#  - `convert` rejects malformed text with a line-numbered error and
#    round-trips well-formed text through verify/stat.
#  - a 20-byte header declaring 2^32-1 streams with no directory fails
#    with a message (exit 1) in `stat` and the trace_corpus scenario,
#    rather than aborting on an out-of-memory reserve.
#  - every committed .mtrc re-encodes byte-identically (`verify`), which
#    pins the one encoder and the one decoder against the committed bytes.
#  - `morpheus_cli` exits 2 on removed flags (`--run-threads`, the sweep
#    journal's `--journal`/`--resume`, the checkpoint `--checkpoint`/
#    `--restore`, and the three fault-drill flags of the deleted
#    watchdog) instead of silently ignoring them, and on counts that
#    do not fit their type (`--jobs 2^32+1`, an SM count past 2^32-1)
#    instead of wrapping them.
#  - a rerun of a `--cache-dir` sweep simulates nothing: its stderr
#    accounting line says `0 simulated`.
#  - `morpheus_cache` exits 2 and touches nothing on a `--max-bytes` that
#    is not a whole decimal number (`500MB` is not 500 bytes) and
#    on the removed `--export`/`--import`.
set -eu

BUILD="$1"
SRC="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
export MORPHEUS_WORK_SCALE=0.02

# --- downsample --keep 0 ----------------------------------------------------
"$BUILD/morpheus_trace" record kmeans --sms 4 --warps 4 --mem-instrs 2000 \
    --out "$TMP/full.mtrc" > /dev/null
"$BUILD/morpheus_trace" downsample "$TMP/full.mtrc" "$TMP/empty.mtrc" --keep 0 \
    > /dev/null
"$BUILD/morpheus_trace" verify "$TMP/empty.mtrc" > /dev/null
"$BUILD/morpheus_trace" stat "$TMP/empty.mtrc" > "$TMP/stat.txt"
grep -Eq 'streams +16' "$TMP/stat.txt"
grep -Eq 'empty streams +16' "$TMP/stat.txt"
grep -Eq '^records +0' "$TMP/stat.txt"
# Replay of an all-empty trace must be well-defined: warps retire
# immediately and the run terminates cleanly.
"$BUILD/morpheus_cli" --scenario trace_replay --trace "$TMP/empty.mtrc" --jobs 1 > /dev/null

# --- converter rejects malformed input with line numbers --------------------
printf 'warp 0 LDG.E addrs 0xZZ\n' > "$TMP/bad.trace"
if "$BUILD/morpheus_trace" convert "$TMP/bad.trace" "$TMP/bad.mtrc" \
    2> "$TMP/err.txt"; then
    echo "convert accepted a malformed address" >&2
    exit 1
fi
grep -q 'line 1' "$TMP/err.txt"

printf '# nothing but comments\n\n' > "$TMP/none.trace"
if "$BUILD/morpheus_trace" convert "$TMP/none.trace" "$TMP/none.mtrc" \
    2> /dev/null; then
    echo "convert accepted an instruction-free file" >&2
    exit 1
fi

# --- converter round-trip ----------------------------------------------------
{
    printf 'kernel smoke\n'
    printf 'cta 0,0,0 warp 0 PC 0x80 LDG.E addrs 0x100 0x200 0x0\n'
    printf 'cta 0,0,0 warp 0 LDS addrs 0x0\n'
    printf 'cta 0,0,0 warp 0 PC 0x90 STG.E addrs 0x100\n'
    printf 'cta 1,0,0 warp 2 RED.ADD addrs 0x4000\n'
} > "$TMP/ok.trace"
"$BUILD/morpheus_trace" convert "$TMP/ok.trace" "$TMP/ok.mtrc" --sms 2 > /dev/null
"$BUILD/morpheus_trace" verify "$TMP/ok.mtrc" > /dev/null
"$BUILD/morpheus_trace" stat "$TMP/ok.mtrc" > "$TMP/okstat.txt"
grep -Eq 'format version +2' "$TMP/okstat.txt"
grep -Eq 'workload +smoke' "$TMP/okstat.txt"
"$BUILD/morpheus_cli" --scenario trace_replay --trace "$TMP/ok.mtrc" --jobs 1 > /dev/null

# --- impossible stream count fails cleanly ---------------------------------
# MTRC v2, no flags, 65536 SMs, 65536 warps, 128-byte lines, empty name,
# stream_count = 2^32-1, and no stream directory at all.
printf 'MTRC\002\000\200\200\004\200\200\004\200\001\000\377\377\377\377\017' \
    > "$TMP/huge_count.mtrc"
test "$(wc -c < "$TMP/huge_count.mtrc")" -eq 20
fails_cleanly() {
    status=0
    "$@" > /dev/null 2> "$TMP/huge_err.txt" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q 'impossible stream count' "$TMP/huge_err.txt"; then
        echo "expected exit 1 with a message, got $status: $*" >&2
        cat "$TMP/huge_err.txt" >&2
        exit 1
    fi
}
fails_cleanly "$BUILD/morpheus_trace" stat "$TMP/huge_count.mtrc"
fails_cleanly "$BUILD/morpheus_cli" --scenario trace_corpus --trace "$TMP/huge_count.mtrc"

# --- committed traces are canonical ----------------------------------------
for f in "$SRC"/bench/traces/*.mtrc "$SRC"/bench/traces/corpus/*.mtrc; do
    "$BUILD/morpheus_trace" verify "$f" > /dev/null
done

# --- removed flags and wrapped counts fail loudly ----------------------------
rejects() {
    status=0
    "$BUILD/morpheus_cli" "$@" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "morpheus_cli exited $status, not 2, on: $*" >&2
        exit 1
    fi
}
rejects --scenario fig01_sm_scaling --run-threads 2
rejects --scenario fig01_sm_scaling --journal "$TMP/x.mjrn"
rejects --scenario fig01_sm_scaling --resume
rejects kmeans --checkpoint "$TMP/x.mchk"
rejects --restore "$TMP/x.mchk"
rejects --scenario fig01_sm_scaling --fault-plan throw@run=0
rejects --scenario fig01_sm_scaling --timeout-ms 1000
rejects --scenario fig01_sm_scaling --retries 0
rejects --scenario fig01_sm_scaling --jobs 4294967297
rejects --scenario fig01_sm_scaling --jobs -1
rejects lbm ALL 4294967322 42

# --- morpheus_cache usage errors touch nothing -------------------------------
"$BUILD/morpheus_cli" --scenario kmeans_capacity_sweep --jobs 1 \
    --cache-dir "$TMP/cache" > /dev/null
"$BUILD/morpheus_cli" --scenario kmeans_capacity_sweep --jobs 1 \
    --cache-dir "$TMP/cache" > /dev/null 2> "$TMP/rerun_err.txt"
grep -q ', 0 simulated$' "$TMP/rerun_err.txt"
entries() { find "$TMP/cache" -name '*.mrce' | wc -l; }
kept="$(entries)"
test "$kept" -gt 0
cache_usage_error() {
    status=0
    "$BUILD/morpheus_cache" --cache-dir "$TMP/cache" "$@" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ] || [ "$(entries)" -ne "$kept" ]; then
        echo "morpheus_cache $* exited $status with $(entries) of $kept entries left" >&2
        exit 1
    fi
}
cache_usage_error --gc --max-bytes 500MB
cache_usage_error --gc --max-bytes abc
cache_usage_error --gc --max-bytes ''
cache_usage_error --gc --max-bytes -1
cache_usage_error --gc --max-bytes 18446744073709551616
cache_usage_error --export "$TMP/dump"
cache_usage_error --import "$TMP/dump"
"$BUILD/morpheus_cache" --cache-dir "$TMP/cache" --verify > /dev/null

echo "trace_cli_smoke: OK"
