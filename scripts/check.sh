#!/usr/bin/env bash
# The full local CI gate: formatting, clippy (warnings are errors),
# wiscape-lint (determinism & soundness rules — local and transitive
# call-graph proofs; report committed to results/LINT_report.json, call
# graph written to results/CALLGRAPH.json, which is git-ignored and
# uploaded as a CI artifact instead), the tests of every workspace
# member (the root Cargo.toml is both the `wiscape` facade package and
# the workspace, so plain `cargo test` runs only the facade's tests;
# `--workspace` runs every crate's unit, integration, property and doc
# tests), the pipeline benchmark's own tests (pipebench/ is a separate
# Cargo workspace, so a library change that breaks its build or its
# correctness checks fails here), and the perf smoke (perf_smoke), which
# asserts five throughput floors: owned decode >= 2M frames/s, SoA train
# evaluation >= 0.95x the resolved scalar path, WAL replay >= 1M reports/s, a
# >= 100k-zone region build in <= 2 s, and, on >= 4 workers, 4 shards
# >= 2x a single shard.
# Set WISCAPE_SKIP_PERF_SMOKE=1 to skip the perf step (e.g. on shared
# or throttled machines where throughput floors are meaningless).
#
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== wiscape-lint (local + call-graph rules)"
cargo run -q -p lint -- --quiet --report results/LINT_report.json \
    --callgraph results/CALLGRAPH.json
echo "   report:    results/LINT_report.json"
echo "   callgraph: results/CALLGRAPH.json"

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== pipebench tests (release)"
cargo test --release --offline -q --manifest-path pipebench/Cargo.toml

if [[ "${WISCAPE_SKIP_PERF_SMOKE:-0}" == "1" ]]; then
    echo "== perf smoke (skipped: WISCAPE_SKIP_PERF_SMOKE=1)"
else
    echo "== perf smoke (perf_smoke)"
    cargo run --release -q -p wiscape-bench --bin perf_smoke
fi

echo "== check.sh: all gates passed"
