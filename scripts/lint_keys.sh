#!/bin/sh
# lint_keys.sh — enforce the workspace's one snake_case key scheme
# (DESIGN.md §10) on everything that leaves the process as a key:
#
#   1. JSON object keys emitted from Rust source (escaped `\"key\":`
#      inside format strings and string literals);
#   2. metric/SLO/flight/phase names passed to the tcam-obs recording
#      entry points.
#
# (No committed record files are left to lint: the BENCH_*.json
# trajectories went with the binaries that wrote them; stack_bench checks
# its own metric names against BENCHMARK.json in its tests.)
#
# A key is non-conforming when it contains an uppercase letter or a
# hyphen. Zero dependencies beyond POSIX sh + grep, same as tier1.sh;
# exits nonzero listing every offender.
set -eu
cd "$(dirname "$0")/.."

status=0

# --- 1. JSON keys in Rust sources -----------------------------------
# Emitted JSON keys appear as \"key\": inside Rust string literals.
# (Plain "key": literals — e.g. admin-plane request parsing — are
# matched too via the second alternative.)
json_bad=$(grep -rn --include='*.rs' -E \
    '\\"[A-Za-z0-9_-]*([A-Z]|-)[A-Za-z0-9_-]*\\":' \
    crates src examples 2>/dev/null || true)
if [ -n "$json_bad" ]; then
    echo "lint_keys: non-snake_case JSON key(s) emitted from source:" >&2
    echo "$json_bad" >&2
    status=1
fi

# --- 2. Metric / SLO / flight / phase names -------------------------
# The first string argument of every recording entry point is a key in
# some exporter; hold them to the same scheme.
metric_bad=$(grep -rn --include='*.rs' -E \
    '(counter_add|gauge_set|hist_record|hist_merge|phase_mark|slo_record|flight_record|span!)\( *"[A-Za-z0-9_-]*([A-Z]|-)[A-Za-z0-9_-]*"' \
    crates src examples 2>/dev/null || true)
if [ -n "$metric_bad" ]; then
    echo "lint_keys: non-snake_case metric/SLO/flight/phase name(s):" >&2
    echo "$metric_bad" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "lint_keys: ok"
fi
exit "$status"
