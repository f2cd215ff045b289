#!/usr/bin/env bash
# Tier-1 gate: everything must pass from a clean checkout, offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# CI must leave the tree as it found it: record the status now, compare
# at the end. Skipped outside a git checkout (e.g. a source tarball).
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    TREE_BEFORE="$(git status --porcelain)"
    TREE_CHECKED=1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> quickstart example (cargo test compiles examples but never runs them)"
cargo run --release -q --example quickstart > /dev/null

echo "==> costs (reads all_results() of a for_configs simulator: asking for an uncovered point panics; checks the joint TraceModeler pass against the per-reference ITraceModeler + UTraceModeler pair on a real trace, release build: any differing parameter bit panics)"
MHE_EVENTS=20000 cargo run --release -q -p mhe-bench --bin costs > /dev/null

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings, broken intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> obs_overhead (disabled-probe budget: <2% on trace replay)"
MHE_EVENTS=60000 cargo run --release -q -p mhe-bench --bin obs_overhead

echo "==> replacement-policy differential suite (budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test policy_differential

echo "==> single-pass engines vs the direct oracle, release build (overflow checks off, as the benchmark runs them)"
cargo test -q --release -p mhe-cache

echo "==> frontier goldens and pipeline, release build (the single-pass kernels optimized, overflow checks off, as the benchmark runs them)"
cargo test -q --release -p mhe --test golden --test pipeline

echo "==> ParallelSweep's fan-out loop and the core engine, release build (the loop's concurrency tests optimized, as the benchmark runs the loop)"
cargo test -q --release -p mhe-core

echo "==> AHH modelers, release build (paged-bitmap granule sets vs the sort-everything oracle, bit for bit, optimized as the benchmark runs them)"
cargo test -q --release -p mhe-model

echo "==> sampling crate, release build (degenerate-exactness and planner proptests optimized, as the benchmark runs them)"
cargo test -q --release -p mhe-sampling

echo "==> sampling accuracy harness (full matrix, budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test sampling_accuracy

echo "==> trace replay differential suite (mtr/din replay vs generated-build bytes, sampled frame skipping; budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test trace_replay

echo "==> daemon differential suite (4 concurrent clients vs batch bytes, budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test daemon_service

echo "==> fault-injection suite (panic isolation, corrupt input, checkpoint resume)"
cargo test -q -p mhe --test fault_injection

echo "==> kill-and-resume smoke (SIGKILL mid-run, resume, diff frontiers)"
./scripts/kill_resume_smoke.sh

echo "==> daemon smoke (serve/connect walk, warm repeat, SIGTERM drain; budget: 120 s)"
timeout 120 ./scripts/daemon_smoke.sh

echo "==> fleet smoke x3 (3 worker processes, one killed mid-sweep, frontier byte-identical; a late attacher must exit clean every time; budget: 300 s)"
timeout 300 bash -c 'for run in 1 2 3; do ./scripts/fleet_smoke.sh || exit 1; done'

echo "==> distributed walk differential suite (1/2/4 workers vs batch bytes, steal, dead coordinator; budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test distributed_walk

echo "==> survivable-service suite (session TTL/LRU bounds, cancellation, auth, persistence; budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test survivable_service

echo "==> network chaos suite (frame faults, seeded chaos, fleet handoff under faults; budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test chaos_net

echo "==> chaos smoke (auth gate, client SIGKILL mid-request, coordinator SIGKILL + standby resume; budget: 300 s)"
timeout 300 ./scripts/chaos_smoke.sh

echo "==> mhe-benchmark: fmt, tests, clippy -D warnings, smoke run (public API as the benchmark compiles it)"
BENCHMARK_MANIFEST=src/bin/mhe-benchmark/Cargo.toml
cargo fmt --manifest-path "$BENCHMARK_MANIFEST" --check
cargo test --offline --manifest-path "$BENCHMARK_MANIFEST"
cargo clippy --offline --manifest-path "$BENCHMARK_MANIFEST" --all-targets -- -D warnings
cargo run --release --offline --manifest-path "$BENCHMARK_MANIFEST" -- run --seed 1 --smoke

echo "==> mhe-benchmark: traced fleet-2 smoke run (a coordinator drop or acceptor change that leaves more than 2% of a round outside every span fails here)"
cargo run --release --offline --manifest-path "$BENCHMARK_MANIFEST" -- --workload fleet-2 --seed 1 --seconds 2 --trace 1 --smoke

if [ -n "${TREE_CHECKED:-}" ]; then
    echo "==> tree unchanged by CI (git status --porcelain)"
    TREE_AFTER="$(git status --porcelain)"
    if [ "$TREE_AFTER" != "$TREE_BEFORE" ]; then
        echo "ci.sh: the run changed the working tree:" >&2
        diff <(printf '%s\n' "$TREE_BEFORE") <(printf '%s\n' "$TREE_AFTER") >&2 || true
        exit 1
    fi
fi

echo "==> ci.sh: all checks passed"
