#!/bin/sh
# Tier-1 gate: build, test, and lint the whole workspace offline.
# The workspace has zero external dependencies, so this must pass with no
# network access to crates.io — and no toolchain beyond cargo (the bench
# binaries validate their own JSON output via --check).
#
# Usage: tier1.sh [--quick]
#   --quick  skip the transient-heavy bench self-checks (the
#            observability overhead gate and the Monte-Carlo containment
#            gate) and run acam_bench/trace_bench in their quick modes;
#            build, tests, clippy, docs and the stack_bench build + test
#            still run. For tight edit loops — the full gate remains the
#            merge bar.
set -eux

QUICK=0
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=1 ;;
    *)
        echo "tier1.sh: unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

cargo build --release --offline --workspace
# The match kernel's shift/carry and AND loops are property-tested a
# second time as optimised code: that is the code stack_bench times and
# the service runs, and overflow checks differ between the profiles.
cargo test -q --offline --release -p tcam-arch
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# A doc link to an item that no longer exists (or never did) fails the
# gate, so deleting code cannot leave dangling references behind.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --offline --workspace --no-deps

# Every exported key — metric names, JSON fields, bench records — must
# follow the one snake_case scheme (DESIGN.md §10); exporters and
# parsers across the workspace assume it.
./scripts/lint_keys.sh

# The repo's one benchmark is its own package outside the workspace
# (read-only here): build and test it so a deleted `pub` item it imports,
# or a BENCHMARK.json that drifted from its metric tables, fails tier-1
# instead of the benchmark stage.
cargo build --release --offline --manifest-path stack_bench/Cargo.toml
cargo test -q --offline --manifest-path stack_bench/Cargo.toml

# Analog/range-CAM gate: the batched interval kernel must be
# bit-identical to the scalar oracle (both metrics + threshold mode),
# sharded distance serving must equal the monolithic scan, the
# nearest-neighbor classifier must clear the seeded accuracy floor, and
# the behavioral accuracy-vs-sigma curve must be monotone. Full mode
# additionally gates kernel >= scalar throughput, the circuit
# discharge-vs-distance calibration (monotone, verdicts agree with the
# behavioral model), the circuit noise sweep, and per-trial fault
# containment; --quick runs the oracle-agreement subset only.
if [ "$QUICK" -eq 0 ]; then
    ./target/release/acam_bench --check
else
    ./target/release/acam_bench --check --quick
fi

# End-to-end tracing/flight-recorder/SLO gate over a loopback node:
# sampled span trees must cover >= 90% of request wall time, the
# injected WAL chaos fault must yield a flight dump that parses and
# names wal_rollback, and the net_request SLO must have seen the
# traffic. Full mode additionally holds tracing-enabled overhead < 5%
# against the untraced baseline (counterbalanced A/B/B/A windows with
# an A/A quietness null); --quick skips only those timing windows.
if [ "$QUICK" -eq 0 ]; then
    ./target/release/trace_bench --check
else
    ./target/release/trace_bench --check --quick
fi

if [ "$QUICK" -eq 0 ]; then
    # Observability overhead gate: spans + registry must cost < 5% on
    # both the solver transient and the serving path when enabled, be
    # statistically zero when disabled, and the phase breakdown must
    # attribute >= 90% of measured wall time.
    ./target/release/obs_bench --check

    # Monte-Carlo containment gate: a 1000-trial margin study with every
    # 97th trial forced non-convergent must complete with each forced
    # failure contained to its own trial (counted, cause retained), the
    # clean trials' margins intact, and zero aborts. The record carries
    # the study's wall time (study_wall_ms); no speed is gated.
    ./target/release/sweep_bench --check
fi
