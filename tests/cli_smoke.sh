#!/bin/sh
# CLI edge-case drill for morpheus_cli (registered as the `cli_smoke`
# ctest entry; $1 = directory with the built binaries).
#
#  - `morpheus_cli` exits 2 on removed flags (`--run-threads`, the sweep
#    journal's `--journal`/`--resume`, the checkpoint `--checkpoint`/
#    `--restore`, the three fault-drill flags of the deleted watchdog,
#    the trace pipeline's `--trace` and its `trace_replay` scenario, and
#    `--format`) instead of silently ignoring them, and on counts that
#    do not fit their type (`--jobs 2^32+1`, an SM count past 2^32-1)
#    instead of wrapping them.
#  - a rerun of a `--cache-dir` sweep simulates nothing: its stderr
#    accounting line says `0 simulated`.
set -eu

BUILD="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
export MORPHEUS_WORK_SCALE=0.02

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
rejects --scenario fig01_sm_scaling --trace "$TMP/kernel.trace"
rejects --scenario fig01_sm_scaling --format csv
rejects --scenario trace_replay
rejects --scenario fig01_sm_scaling --jobs 4294967297
rejects --scenario fig01_sm_scaling --jobs -1
rejects lbm ALL 4294967322 42

# --- a cache rerun simulates nothing ------------------------------------------
"$BUILD/morpheus_cli" --scenario kmeans_capacity_sweep --jobs 1 \
    --cache-dir "$TMP/cache" > /dev/null
"$BUILD/morpheus_cli" --scenario kmeans_capacity_sweep --jobs 1 \
    --cache-dir "$TMP/cache" > /dev/null 2> "$TMP/rerun_err.txt"
grep -q ', 0 simulated$' "$TMP/rerun_err.txt"

echo "cli_smoke: OK"
