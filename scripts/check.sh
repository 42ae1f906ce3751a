#!/usr/bin/env bash
# Pre-merge gate for the DMW workspace (see docs/static_analysis.md).
#
# Runs, in order:
#   1. cargo fmt --check          -- formatting drift
#   2. cargo clippy               -- warnings are errors workspace-wide;
#      the four panic/truncation lints are advisory (`-A`) at this layer
#      so non-protocol crates only surface them. The protocol levels live
#      in source and outrank these CLI flags: `#![deny]`/`#![forbid]` at
#      the crate roots of modmath, crypto, core, simnet and obs, and
#      `#[deny]`/`#[forbid]` on the protocol-critical `pub mod` lines of
#      crates/core/src/lib.rs (rules L1, L3, L5, L7); `disallowed_types`
#      is `deny` in [workspace.lints] (L4), configured by clippy.toml
#   3. cargo doc                  -- rustdoc warnings (broken intra-doc
#      links, missing docs) are errors
#   4. dmw-lint                   -- protocol-invariant rules L2, L6,
#      L8-L11 (lexical L2, L6, L8 plus flow-sensitive L9 secrecy-taint,
#      L10 determinism-order and L11 phase-graph conformance), then the
#      stable JSON report is regenerated and compared against the
#      committed docs/lint_report.json -- a stale report fails the gate
#   5. cargo build -p dmw-examples --bins
#                                 -- the example binaries ([[bin]] targets
#      with autobins off, so plain `cargo build`/`cargo test` skip them)
#   6. perfbench build            -- the benchmark package has its own
#      `[workspace]`, so root `cargo build`/`cargo test` never compile it;
#      building it here (into .bench_build, as perfbench/run.py does)
#      catches a protocol-crate API change that would break the benchmark
#   7. fault-matrix smoke         -- the chaos determinism suite (reliable
#      delivery + graceful degradation over the seeded fault matrix),
#      isolated so a recovery regression is named before the full suite
#   8. cargo test                 -- full workspace suite (which re-runs
#      dmw-lint, and clippy over all targets at the levels set in
#      source, as integration tests, so CI cannot skip them)
#   9. bench_batch --smoke        -- the batch engine end-to-end on a tiny
#      instance, exiting non-zero if thread counts disagree or the
#      adaptive recovery layer exceeds its retransmission/duplicate
#      ceilings (the recovery-regression gate)
#  10. bench_scale --smoke        -- the event-driven scheduler's n-sweep
#      harness end-to-end on the smallest point, exiting non-zero if the
#      event engine and the polling oracle disagree bit-for-bit
#  11. reproduce drift            -- regenerates the full report and the
#      metrics snapshot under the (default) event engine and compares
#      byte-for-byte against the committed docs/reproduce_output.md and
#      docs/reproduce_metrics.json -- scheduler drift fails the gate
#
# Exits non-zero at the first failing step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --quiet -- \
    -D warnings \
    -A clippy::unwrap-used \
    -A clippy::expect-used \
    -A clippy::indexing-slicing \
    -A clippy::cast-possible-truncation

echo "==> cargo doc (no-deps, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --quiet --no-deps

echo "==> dmw-lint"
cargo run --quiet -p dmw-lint

echo "==> dmw-lint --format json (report drift)"
mkdir -p target
cargo run --quiet -p dmw-lint -- --format json --out target/lint_report.json
if ! cmp -s target/lint_report.json docs/lint_report.json; then
    echo "docs/lint_report.json is stale; regenerate with:" >&2
    echo "  cargo run -p dmw-lint -- --format json --out docs/lint_report.json" >&2
    exit 1
fi

echo "==> cargo build -p dmw-examples --bins"
cargo build --quiet -p dmw-examples --bins

echo "==> perfbench build"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml

echo "==> fault-matrix smoke (recovery determinism)"
cargo test --quiet -p integration-tests --test recovery_determinism

echo "==> cargo test (workspace)"
cargo test --quiet --workspace

echo "==> bench_batch --smoke (recovery ceilings)"
# The smoke instance is fully deterministic: the adaptive endpoint
# produces exactly 135 retransmissions and 102 duplicate deliveries
# today, so the ~10% ceilings below trip on any recovery-layer
# regression long before the committed 5x batch budget is at risk.
cargo run --quiet -p dmw-bench --bin bench_batch -- --smoke \
    --max-retransmissions 150 --max-duplicates 115

echo "==> bench_scale --smoke"
cargo run --quiet -p dmw-bench --bin bench_scale -- --smoke

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
