#!/bin/sh
# Tier-1 gate: build, test, and lint the whole workspace offline.
# The workspace has zero external dependencies, so this must pass with no
# network access to crates.io — and no toolchain beyond cargo (the bench
# binaries validate their own JSON output via --check).
#
# Usage: tier1.sh [--quick]
#   --quick  skip the transient-heavy bench self-checks (solver trace and
#            the observability overhead gate); build, tests, clippy, and
#            the fast serving/churn checks still run. For tight edit
#            loops — the full gate remains the merge bar.
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
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# A doc link to an item that no longer exists (or never did) fails the
# gate, so deleting code cannot leave dangling references behind.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --offline --workspace --no-deps

# Every exported key — metric names, JSON fields, bench records — must
# follow the one snake_case scheme (DESIGN.md §10); exporters and
# parsers across the workspace assume it.
./scripts/lint_keys.sh

# The block-batched SoA match kernel must never lose to the scalar scan
# it replaced: kernel_bench sweeps rows x tile and asserts blocked >=
# scalar at every swept size (a relative, box-independent gate), after
# verifying the kernel bit-identical to the scalar oracle per cell.
./target/release/kernel_bench --check

# Smoke-run the serving bench in self-check mode: the JSON record must
# parse, report real lookups, show ordered latency quantiles
# (p99 >= p50 > 0), and clear the saturation-throughput floor for the
# resolved worker count (scalar fallback floor at the default
# workers-per-shard of 1; the 10x multi-core floor when scaled out).
# Exits nonzero on any violation.
./target/release/serve_bench --seed 1 --duration-ms 100 --check

# Smoke-run the online-update bench: rule churn against a live service
# must sustain the update-rate floor with ZERO torn-snapshot observations
# (every epoch-tagged search result verified against that epoch's rules),
# no dropped updates, and ordered publish/staleness/search quantiles.
./target/release/churn_bench --seed 1 --duration-ms 100 --check

# Smoke-run the wire front-end bench: pipelined loopback lookups through
# the full node (TCP framing + WAL-durable store + shard workers) must
# clear the per-connection-core throughput floor (1M lookups/s) with
# ordered request quantiles, and the kill-and-recover pass must replay
# the WAL to the EXACT pre-kill epoch with zero lost or torn updates.
./target/release/net_bench --seed 1 --duration-ms 100 --check

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
    # The solver-trace record for the reference 16x16 3T2N search
    # transient must parse and describe a run that actually integrated
    # (steps accepted, plausible dt extrema).
    ./target/release/solver_trace_bench --check

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
