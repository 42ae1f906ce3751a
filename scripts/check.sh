#!/usr/bin/env bash
# Pre-merge gate for the DMW workspace (see docs/static_analysis.md).
#
# Runs, in order:
#   1. cargo fmt --check          -- formatting drift
#   2. cargo clippy               -- warnings are errors workspace-wide,
#      over every target (libraries, binaries, tests, benches, examples);
#      the four panic/truncation lints are advisory (`-A`) at this layer
#      so non-protocol crates only surface them. The protocol levels live
#      in source and outrank these CLI flags: `#![deny]`/`#![forbid]` at
#      the crate roots of modmath, crypto, core, simnet and obs, and
#      `#[deny]`/`#[forbid]` on the protocol-critical `pub mod` lines of
#      crates/core/src/lib.rs (rules L1, L2, L3, L5, L7, and L10 in the
#      deterministic crates); `disallowed_types` is `deny` in
#      [workspace.lints] (L4, L10), configured by clippy.toml
#   3. cargo doc                  -- rustdoc warnings (broken intra-doc
#      links, missing docs) are errors
#   4. cargo build -p dmw-examples --bins
#                                 -- the example binaries ([[bin]] targets
#      with autobins off, so plain `cargo build`/`cargo test` skip them)
#   5. perfbench build            -- the benchmark package has its own
#      `[workspace]`, so root `cargo build`/`cargo test` never compile it;
#      building it here (into .bench_build, as perfbench/run.py does)
#      catches a protocol-crate API change that would break the benchmark;
#      the committed perfbench/Cargo.lock is restored afterwards
#   6. fault-matrix smoke         -- the chaos determinism suite (reliable
#      delivery + graceful degradation over the seeded fault matrix),
#      isolated so a recovery regression is named before the full suite
#   7. cargo test                 -- full workspace suite (which re-runs
#      clippy over all targets at the levels set in source as an
#      integration test, so CI cannot skip it)
#   8. doctest error codes        -- re-runs the doctests with
#      RUSTC_BOOTSTRAP=1, under which rustdoc checks the error code
#      pinned on each `compile_fail,EXXXX` block (stable rustdoc ignores
#      it): the L9 blocks of dmw::messages and vendor rand's L4 blocks
#      must fail for their stated reason, not for any error
#   9. bench_batch --smoke        -- the batch engine end-to-end on a tiny
#      instance, exiting non-zero if thread counts disagree or the
#      adaptive recovery layer exceeds its retransmission/duplicate
#      ceilings (the recovery-regression gate)
#  10. bench_scale --smoke        -- the event-driven scheduler's n-sweep
#      harness end-to-end on the smallest point, exiting non-zero if the
#      event engine and the polling oracle disagree bit-for-bit
#  11. bench_scale --agents 32    -- the same parity check (release build)
#      at n = 32, the smallest n whose ticks poll their agents on more
#      than one worker (on a host with two or more cores), so the
#      parallel tick path meets the crash and backoff workloads before
#      merge
#  12. reproduce drift            -- regenerates the full report and the
#      metrics snapshot under the (default) event engine and compares
#      byte-for-byte against the committed docs/reproduce_output.md and
#      docs/reproduce_metrics.json -- scheduler drift fails the gate
#
# Exits non-zero at the first failing step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets --quiet -- \
    -D warnings \
    -A clippy::unwrap-used \
    -A clippy::expect-used \
    -A clippy::indexing-slicing \
    -A clippy::cast-possible-truncation

echo "==> cargo doc (no-deps, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --quiet --no-deps

echo "==> cargo build -p dmw-examples --bins"
cargo build --quiet -p dmw-examples --bins

echo "==> perfbench build"
# The build drops stale entries from the committed perfbench/Cargo.lock;
# perfbench/ is frozen with the benchmark, so put the lock back after it.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
restore_perfbench_lock() {
    cp "$perfbench_lock" perfbench/Cargo.lock
    rm -f "$perfbench_lock"
}
trap restore_perfbench_lock EXIT
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml
restore_perfbench_lock
trap - EXIT

echo "==> fault-matrix smoke (recovery determinism)"
cargo test --quiet -p integration-tests --test recovery_determinism

echo "==> cargo test (workspace)"
cargo test --quiet --workspace

echo "==> doctest error codes (compile_fail,EXXXX)"
RUSTC_BOOTSTRAP=1 cargo test --doc --workspace --quiet

echo "==> bench_batch --smoke (recovery ceilings)"
# The smoke instance is fully deterministic: the adaptive endpoint
# produces exactly 135 retransmissions and 102 duplicate deliveries
# today, so the ~10% ceilings below trip on any recovery-layer
# regression long before the committed 5x batch budget is at risk.
cargo run --quiet -p dmw-bench --bin bench_batch -- --smoke \
    --max-retransmissions 150 --max-duplicates 115

echo "==> bench_scale --smoke"
cargo run --quiet -p dmw-bench --bin bench_scale -- --smoke

echo "==> bench_scale --agents 32 (parallel tick parity)"
cargo run --release --quiet -p dmw-bench --bin bench_scale -- --agents 32 > /dev/null

echo "==> reproduce drift (event engine vs committed report)"
cargo run --release --quiet -p dmw-bench --bin reproduce -- all \
    --metrics target/reproduce_metrics.json > target/reproduce_output.md
if ! cmp -s target/reproduce_output.md docs/reproduce_output.md; then
    echo "docs/reproduce_output.md is stale; regenerate with:" >&2
    echo "  cargo run --release -p dmw-bench --bin reproduce -- all \\" >&2
    echo "    --metrics docs/reproduce_metrics.json > docs/reproduce_output.md" >&2
    exit 1
fi
if ! cmp -s target/reproduce_metrics.json docs/reproduce_metrics.json; then
    echo "docs/reproduce_metrics.json is stale; regenerate alongside the report" >&2
    exit 1
fi

echo "check.sh: all gates passed"
