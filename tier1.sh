#!/bin/sh
# Tier-1 gate: build, test, and lint the whole workspace offline.
# The workspace has zero external dependencies, so this must pass with no
# network access to crates.io — and no toolchain beyond cargo. Every
# invariant is a `cargo test`; nothing here times anything (numbers are
# `stack_bench` metrics, measured by the benchmark stage).
#
# Usage: tier1.sh    (takes no arguments)
set -eux

if [ "$#" -ne 0 ]; then
    echo "tier1.sh: unknown argument: $1" >&2
    exit 2
fi

cargo build --release --offline --workspace
# The workspace stays rustfmt-clean, so no change carries unrelated reformatting.
cargo fmt --all -- --check
# clippy --all-targets compiles the examples; only running them shows a
# signal an example reads by name ("v(ml)" in search_waveform) is still
# recorded, and that the prefix and range encoders (prefix_to_word in
# ip_route_lookup, range_to_prefixes in acl_firewall) still load their
# tables. Every file in examples/ is listed. A non-zero exit fails the
# gate (set -e).
for example in quickstart search_waveform device_explorer ip_route_lookup acl_firewall refresh_interference; do
    cargo run --release --offline -q --example "$example" > /dev/null
done
# The match kernel's AND loop and the table's hole paths (a remove
# leaving a hole, a push filling one or carrying rows to the nearest one
# across block edges, compaction) are property-tested a second time as
# optimised code: that is the code stack_bench times and the service
# runs, and overflow checks differ between the profiles; so is the
# bitmaps' zero tail, which lets optimised code index the AND loop's
# `u8` block view without bounds checks; and so are both block
# summaries, on the key's leading 12 columns and on the 8 after them,
# whose live bits pick the blocks a key visits and which every write and
# move keeps exact: a joining row sets its values' bits, and a leaving
# row rechecks each of its values against the block's bitmaps.
cargo test -q --offline --release -p tcam-arch
# Same reason one layer up: the published cell's load-once-before-the-match
# rule and the refresh lock a lookup waits out are what optimised code can
# break, and optimised code is what stack_bench times. So is the update
# path's copy-on-write publication: the updater's one table is the cell's
# snapshot, and the first change after a publish clones it before it
# writes a row.
# One layer further up, a connection matches on its own thread against
# the published cell, reads frames through one buffer and holds its
# encoded replies only while that buffer holds the whole next frame,
# and the client queues a burst's requests and writes them in one write,
# never past one server read buffer: that cell load, the reply order,
# the held-reply rule and the client's queue are what stack_bench times.
# And on the circuit side: the channel model's closed-form gradient is held
# to its finite-difference oracle, and Fig. 7's 64x64 solver counts to their
# pins, as the optimised floating-point code stack_bench times.
cargo test -q --offline --release -p tcam-serve -p tcam-update -p tcam-net -p tcam-devices -p tcam-core
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# A doc link to an item that no longer exists (or never did) fails the
# gate, so deleting code cannot leave dangling references behind.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --offline --workspace --no-deps

# Every exported key — metric names, JSON fields — must follow the one
# snake_case scheme (DESIGN.md §10); exporters and parsers across the
# workspace assume it.
./scripts/lint_keys.sh

# The repo's one benchmark is its own package outside the workspace
# (read-only here): build and test it so a deleted `pub` item it imports,
# or a BENCHMARK.json that drifted from its metric tables, fails tier-1
# instead of the benchmark stage.
cargo build --release --offline --manifest-path stack_bench/Cargo.toml
cargo test -q --offline --manifest-path stack_bench/Cargo.toml
