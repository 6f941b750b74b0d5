#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite twice --
#   1. a plain release-ish build (what CI and the benches use), and
#   2. a hardened build: ASan+UBSan with the simulator's internal invariant
#      checkers compiled in (PRESTORE_CHECK_INVARIANTS).
# A wedged run cannot hang either pass: the scheduler aborts with per-core
# clocks on a round in which no core can make progress.
#
# Usage: tools/run_tier1.sh [--fast]
#   --fast  skip the sanitizer pass (plain build only)
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

# CI caches compilations across runs; locally this is a no-op unless ccache
# is installed.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache
                 -DCMAKE_C_COMPILER_LAUNCHER=ccache)
fi

run_pass() {
  local build_dir="$1"
  shift
  echo "==> configure ${build_dir} ($*)"
  cmake -B "${build_dir}" -S . "${LAUNCHER_ARGS[@]}" "$@" >/dev/null
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j >/dev/null
  echo "==> ctest ${build_dir}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

# Determinism gate: every simulated run is a pure function of its inputs
# (one fiber scheduler, DESIGN.md §12), so two runs of a bench must print
# byte-identical output. Covers the thread- and lock-sensitive figures
# (Fig 3's thread sweep, Fig 13's CAS publication, Fig 14's weak-ordering
# store buffer), X9 messaging, the open-loop serving path, the sub-second
# Listing 2/3 and ablation benches, and the governor's §7.4.1 and §7.4.2
# benches.
determinism_gate() {
  local build_dir="$1"
  local bench first second
  local -a cmd
  for bench in "bench_fig13_clht_machineB" "bench_fig14_masstree_machineB" \
      "bench_fig3_listing1 --iters=1000" \
      "bench_x9_latency" "bench_serve_ycsb" "bench_fig5_listing2" \
      "bench_pitfall_listing3" "bench_pitfall_skip" "bench_ablation_drain" \
      "bench_ablation_replacement" "bench_ablation_bandwidth" \
      "bench_misuse_manual" "bench_overhead_useless"; do
    echo "==> determinism gate: ${bench} (${build_dir})"
    read -r -a cmd <<< "${bench}"
    first=$("./${build_dir}/bench/${cmd[0]}" "${cmd[@]:1}")
    second=$("./${build_dir}/bench/${cmd[0]}" "${cmd[@]:1}")
    if [[ "${first}" != "${second}" ]]; then
      echo "${bench}: output differs between two runs" >&2
      diff <(echo "${first}") <(echo "${second}") >&2 || true
      exit 1
    fi
  done
}

# Parallel-equals-sequential gate: the grid benches run their independent
# configurations on one host thread per CPU of the affinity mask
# (bench/run_configs.h). Pinned to one CPU they run one after another on
# the main thread; both runs must print the same bytes.
parallel_gate() {
  local build_dir="$1"
  local pinned unpinned
  echo "==> parallel-equals-sequential gate: bench_fig3_listing1 (${build_dir})"
  pinned=$(taskset -c 0 "./${build_dir}/bench/bench_fig3_listing1" --iters=1000)
  unpinned=$("./${build_dir}/bench/bench_fig3_listing1" --iters=1000)
  if [[ "${pinned}" != "${unpinned}" ]]; then
    echo "bench_fig3_listing1: pinned and unpinned runs differ" >&2
    diff <(echo "${pinned}") <(echo "${unpinned}") >&2 || true
    exit 1
  fi
}

run_pass build
determinism_gate build
parallel_gate build

# Serve end-to-end gate: the ctest pass above already runs serve_test,
# serve_fault_test, and ycsb_config_test (registered in tests/CMakeLists.txt);
# this additionally exercises the full CLI request path -- preload, sharded
# serve loop, policy loop, results table -- the way a user runs it.
echo "==> serve smoke (kv_server_cli --smoke)"
./build/tools/kv_server_cli --smoke >/dev/null

# Cluster failover smoke: 3 nodes, 3-way replication, one replica killed
# mid-run by the seeded fault plan. The bench exits non-zero unless the run
# completes with zero lost acked writes, recovered throughput, bounded p99,
# and byte-identical outcome logs across two runs.
echo "==> cluster failover smoke (bench_serve_cluster --smoke)"
./build/bench/bench_serve_cluster --smoke --out=build/BENCH_serve_cluster_smoke.json >/dev/null

# Engine-throughput smoke. The bench exits non-zero if either self-check
# fails: two sequential replays, or two sliced replays, of the digest trace
# printing different digests (determinism contract, DESIGN.md §12).
echo "==> sim-throughput smoke (bench_sim_throughput --quick)"
./build/bench/bench_sim_throughput --quick \
  --out=build/BENCH_sim_throughput_smoke.json >/dev/null

# Golden digest: the recorded end state of a 4-worker sequential replay.
# (The SetBlock layout's op-for-op equivalence with its reference
# implementation is cache_layout_equiv_test, in the ctest pass above.)
echo "==> golden digest smoke (sim_throughput_cli --sequential)"
gd=$(./build/tools/sim_throughput_cli --workers=4 --ops=20000 --keys=2048 \
  --shared-keys=512 --shared-fraction=0.25 --theta=0 --seed=42 --sequential \
  --digest | grep '^digest=')
if [[ "${gd}" != "digest=ca074689a0e38784" ]]; then
  echo "golden determinism digest changed: ${gd}" >&2
  exit 1
fi

# Sliced-scheduler CLI smoke: the 8-core fiber-scheduled replay at quantum
# 20000 must print the recorded digest, and quantum=0 must be rejected.
echo "==> sliced scheduler smoke (sim_throughput_cli --quantum=20000)"
sd=$(./build/tools/sim_throughput_cli --workers=8 --ops=20000 --keys=2048 \
  --shared-keys=512 --shared-fraction=0.25 --theta=0 --seed=42 \
  --quantum=20000 --digest | grep '^digest=')
if [[ "${sd}" != "digest=7377a872a3f90b85" ]]; then
  echo "recorded sliced digest changed: ${sd}" >&2
  exit 1
fi
if ./build/tools/sim_throughput_cli --quantum=0 >/dev/null 2>&1; then
  echo "sim_throughput_cli accepted --quantum=0" >&2
  exit 1
fi

# Miss-leg digest smoke: a miss-heavy trace, in which most ops end in
# device work (XPBuffer coalescing, block fetches and flushes, media
# queueing), must print the recorded digest.
echo "==> miss-leg digest smoke (sim_throughput_cli --miss-mix=0.8)"
MISSY_ARGS=(--workers=2 --sequential --ops=20000 --keys=16384
  --shared-keys=256 --shared-fraction=0.1 --read-ratio=0.4 --theta=0
  --miss-mix=0.8 --seed=42 --digest)
md=$(./build/tools/sim_throughput_cli "${MISSY_ARGS[@]}" | grep '^digest=')
if [[ "${md}" != "digest=df3675ef331ab243" ]]; then
  echo "recorded miss-leg digest changed: ${md}" >&2
  exit 1
fi

# PMEM buffer ablation smoke: sweeps the XPBuffer from 4 to 1024 blocks
# per module, so buffers of more than 255 slots are exercised. Exits
# non-zero if any row crashes or a configuration is rejected.
echo "==> PMEM buffer ablation smoke (bench_ablation_pmem_buffer --iters=300)"
./build/bench/bench_ablation_pmem_buffer --iters=300 >/dev/null

# Monitored-governor smoke: misuse recovery on an unprofiled workload,
# sub-percent monitoring overhead, and the monitor-attached determinism
# digest across two runs. The bench exits non-zero on any gate.
echo "==> monitor smoke (bench_monitor --quick)"
./build/bench/bench_monitor --quick --out=build/BENCH_monitor_smoke.json \
  >/dev/null

# Monitored serving CLI smoke plus the CLI surface on all four CLIs:
# --help exits 0, and a typo'd flag, an unknown value of an enumerated flag
# or a malformed numeric or boolean value is rejected loudly (exit 1)
# instead of silently running another configuration.
echo "==> monitored serve smoke (kv_server_cli --smoke --governed --monitored)"
./build/tools/kv_server_cli --smoke --governed --monitored >/dev/null
for cli in kv_server_cli kv_cluster_cli sim_throughput_cli dirtbuster; do
  ./build/tools/${cli} --help >/dev/null
  if ./build/tools/${cli} --monitered >/dev/null 2>&1; then
    echo "${cli} accepted an unknown flag" >&2
    exit 1
  fi
done
for bad in "kv_server_cli --smoke --workload=z" \
    "kv_server_cli --smoke --index=Masstree" \
    "kv_cluster_cli --smoke --workload=z" \
    "sim_throughput_cli --ops=1000 --machine=B" \
    "dirtbuster --workload=x9 --machine=Bslow" \
    "dirtbuster --workload=nope" \
    "sim_throughput_cli --workers=abc --ops=100" \
    "kv_server_cli --smoke --batched_clean=ture"; do
  read -r -a cmd <<< "${bad}"
  rc=0
  "./build/tools/${cmd[0]}" "${cmd[@]:1}" >/dev/null 2>&1 || rc=$?
  if [[ "${rc}" != "1" ]]; then
    echo "${bad}: expected exit 1 for a bad value, got ${rc}" >&2
    exit 1
  fi
done

if [[ "${FAST}" == "0" ]]; then
  # Death tests fork under sanitizers; keep the ASan quarantine small so the
  # parallel suite fits in modest CI memory.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-quarantine_size_mb=64}"
  run_pass build-sanitize \
    -DPRESTORE_SANITIZE=address,undefined \
    -DPRESTORE_CHECK_INVARIANTS=ON
  determinism_gate build-sanitize
  parallel_gate build-sanitize
  echo "==> cluster failover smoke (sanitized build)"
  ./build-sanitize/bench/bench_serve_cluster --smoke \
    --out=build-sanitize/BENCH_serve_cluster_smoke.json >/dev/null
  # The fiber scheduler's stack switches under ASan+UBSan with invariant
  # checkers on: the same quick sweep the plain pass ran.
  echo "==> sim-throughput smoke (sanitized build)"
  ./build-sanitize/bench/bench_sim_throughput --quick \
    --out=build-sanitize/BENCH_sim_throughput_smoke.json >/dev/null
  # Monitor gates under ASan+UBSan: the sampling hot path and split/merge
  # bookkeeping run the same quick sweep.
  echo "==> monitor smoke (sanitized build)"
  ./build-sanitize/bench/bench_monitor --quick \
    --out=build-sanitize/BENCH_monitor_smoke.json >/dev/null
  # The 256- and 1024-block XPBuffer rows under ASan+UBSan with invariant
  # checkers: buffers of more than 255 slots, scanned and rotated per hit.
  echo "==> PMEM buffer ablation smoke (sanitized build)"
  ./build-sanitize/bench/bench_ablation_pmem_buffer --iters=300 >/dev/null
  # The same miss-heavy trace under ASan+UBSan with invariant checkers.
  echo "==> miss-leg digest smoke (sanitized build)"
  smd=$(./build-sanitize/tools/sim_throughput_cli "${MISSY_ARGS[@]}" \
    | grep '^digest=')
  if [[ "${smd}" != "digest=df3675ef331ab243" ]]; then
    echo "sanitized recorded miss-leg digest changed: ${smd}" >&2
    exit 1
  fi
fi

echo "==> tier-1 gate passed"
