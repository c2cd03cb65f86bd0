#!/usr/bin/env bash
# The one command: every workload (each in a process of its own), untraced
# for the end-to-end metrics and traced for the per-layer ones, with the
# correctness gate. Results land in out/results.json.
#
#   ./run.sh                 all five workloads, untraced + traced (~4 min)
#   ./run.sh --smoke         5 steps per workload, all checks, no numbers kept (< 30 s)
#   ./run.sh <args>          anything else goes to the harness, e.g.
#                            ./run.sh selfcheck --runs 10
#                            ./run.sh compare results/baseline.json out/results.json
set -euo pipefail
cd "$(dirname "$0")"

# The pinned-surface rule (README.md): nothing on ROADMAP's deletion list may
# be referenced from the harness. Comment-only lines are not code.
check_surface() {
    local banned='\.(overlap|dist_overlap|owned_dist|taskcheck|kernel_backend|tile_size|sched_seed)\(|\.plan_cache\([^)]|allgather_fabs|BackendKind|Profiler|\.profiler|RunReport'
    if grep -nE "$banned" src/*.rs | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
        echo "run.sh: benchmark/src references an item on the do-not-reference list" >&2
        exit 1
    fi
}

run() { cargo run --release --offline --quiet -- "$@"; }

# /BENCHMARK.json is `spec` output; a table edited without regenerating it
# would leave the contract file describing another benchmark.
check_spec() {
    if [ -f ../BENCHMARK.json ] && ! run spec | cmp -s - ../BENCHMARK.json; then
        echo "run.sh: /BENCHMARK.json is stale: cargo run --release --offline -- spec > ../BENCHMARK.json" >&2
        exit 1
    fi
}

case "${1:-}" in
    "") check_surface; check_spec; run all --trace ;;
    --smoke) check_surface; check_spec; run all --smoke ;;
    *) run "$@" ;;
esac
