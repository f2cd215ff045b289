#!/usr/bin/env bash
# Tier-1 gate: everything must pass from a clean checkout, offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings, broken intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> spacewalk_speedup smoke (walk throughput + determinism)"
MHE_EVENTS=20000 cargo run --release -q -p mhe-bench --bin spacewalk_speedup

echo "==> obs_overhead (disabled-probe budget: <2% on trace replay)"
MHE_EVENTS=60000 cargo run --release -q -p mhe-bench --bin obs_overhead

echo "==> replacement-policy differential suite (budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test policy_differential

echo "==> sampling accuracy harness (full matrix, budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test sampling_accuracy

echo "==> daemon differential suite (4 concurrent clients vs batch bytes, budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test daemon_service

echo "==> sampling_speedup (>=10x grid simulation at --sample defaults, results/BENCH_7.json)"
MHE_EVENTS=2000000 cargo run --release -q -p mhe-bench --bin sampling_speedup

echo "==> policy_matrix (per-policy accesses/s, engines cross-checked)"
MHE_EVENTS=60000 cargo run --release -q -p mhe-bench --bin policy_matrix

echo "==> fault-injection suite (panic isolation, corrupt input, checkpoint resume)"
cargo test -q -p mhe --test fault_injection

echo "==> bench_snapshot (throughput floors, fleet speedup, eviction/cancel costs, results/BENCH_{8,9,10}.json)"
cargo run --release -q -p mhe-bench --bin bench_snapshot

echo "==> kill-and-resume smoke (SIGKILL mid-run, resume, diff frontiers)"
./scripts/kill_resume_smoke.sh

echo "==> daemon smoke (serve/connect walk, warm repeat, SIGTERM drain; budget: 120 s)"
timeout 120 ./scripts/daemon_smoke.sh

echo "==> fleet smoke (3 worker processes, one killed mid-sweep, frontier byte-identical; budget: 300 s)"
timeout 300 ./scripts/fleet_smoke.sh

echo "==> distributed walk differential suite (1/2/4 workers vs batch bytes, steal, dead coordinator; budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test distributed_walk

echo "==> survivable-service suite (session TTL/LRU bounds, cancellation, auth, persistence; budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test survivable_service

echo "==> network chaos suite (frame faults, seeded chaos, fleet handoff under faults; budget: 300 s wall)"
timeout 300 cargo test -q --release -p mhe --test chaos_net

echo "==> chaos smoke (auth gate, client SIGKILL mid-request, coordinator SIGKILL + standby resume; budget: 300 s)"
timeout 300 ./scripts/chaos_smoke.sh

echo "==> mhe-benchmark: tests, clippy -D warnings, smoke run (public API as the benchmark compiles it)"
BENCH_MANIFEST=src/bin/mhe-benchmark/Cargo.toml
cargo test --offline --manifest-path "$BENCH_MANIFEST"
cargo clippy --offline --manifest-path "$BENCH_MANIFEST" --all-targets -- -D warnings
cargo run --release --offline --manifest-path "$BENCH_MANIFEST" -- run --seed 1 --smoke

echo "==> ci.sh: all checks passed"
