#!/usr/bin/env bash
# Tier-1 verification, run twice:
#   1. Release           — the configuration the benches and figures use.
#   2. Debug + ASan/UBSan — assertions on (the clock-overflow and CID-reuse
#      checks live behind assert) and memory/UB errors fatal.
# Usage: ci/verify.sh [build-dir-prefix]      configure, build, test and gate
#                                             both legs (default: build-ci)
#        ci/verify.sh --gates LEG BUILD_DIR   run one leg's gates (release or
#                                             asan-ubsan) on an existing build
set -euo pipefail
cd "$(dirname "$0")/.."

run_pass() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== verify pass: ${name} ==="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

# Fault campaign: nonzero failure rates drive the bad-block remap, retry, and
# ECC paths that a clean run never enters; under ASan/UBSan this doubles as a
# memory check of the fault-handling code.
fault_campaign() {
  local build_dir="$1"
  echo "=== verify pass: fault campaign (${build_dir}) ==="
  "${build_dir}/bench/fault_campaign" --ops=5000
}

# Trace export: the bench itself enforces the exactness invariant (per-stage
# sums == submit->completion window on every command, all three transfer
# techniques, 1q and 2q) and exits nonzero on violation; jq then checks the
# exported file is valid Chrome trace_event JSON with well-formed events.
trace_export() {
  local build_dir="$1"
  echo "=== verify pass: trace export (${build_dir}) ==="
  local out="${build_dir}/trace_breakdown.json"
  "${build_dir}/bench/trace_breakdown" --ops=100 --export=chrome --out="${out}"
  if command -v jq > /dev/null; then
    jq -e '.traceEvents | type == "array" and length > 0' "${out}" > /dev/null
    jq -e '[.traceEvents[] | select(.ph == "X")]
           | length > 0 and all(has("name") and has("ts") and has("dur")
                                and has("pid") and has("tid"))' \
      "${out}" > /dev/null
    echo "trace export: jq schema checks passed"
  else
    echo "trace export: jq not found, schema checks skipped"
  fi
}

# Trace round trip: a generator run dumped as a trace replays through the
# serial executor as the same 2000 PUTs, and a malformed PUT size or one
# above the device's maximum value size is rejected with exit 1 before
# anything is replayed.
trace_roundtrip() {
  local build_dir="$1"
  echo "=== verify pass: trace round trip (${build_dir}) ==="
  local trace="${build_dir}/roundtrip.trace" out rc=0
  "${build_dir}/examples/db_bench" --workload=M --ops=2000 \
    --dump_trace="${trace}"
  out="$("${build_dir}/examples/db_bench" --replay="${trace}")"
  echo "${out}"
  grep -q ": 2000 puts," <<< "${out}"
  printf 'put 6b -1\n' > "${trace}.bad"
  "${build_dir}/examples/db_bench" --replay="${trace}.bad" || rc=$?
  if [ "${rc}" -ne 1 ]; then
    echo "malformed trace: expected exit 1, got ${rc}"
    return 1
  fi
  rc=0
  printf 'put 6b 100000000\n' > "${trace}.big"
  "${build_dir}/examples/db_bench" --replay="${trace}.big" || rc=$?
  if [ "${rc}" -ne 1 ]; then
    echo "oversize PUT trace: expected exit 1, got ${rc}"
    return 1
  fi
  echo "trace round trip: 2000 PUTs replayed, malformed and oversize sizes rejected"
}

# Prometheus text exposition 0.0.4: promtool when installed, else the line
# grammar (comment lines, or metric_name[{labels}] value [timestamp_ms]).
check_exposition() {
  local prom="$1"
  if command -v promtool > /dev/null; then
    promtool check metrics < "${prom}"
    echo "exposition: promtool check passed (${prom})"
  else
    awk '
      /^#/ { next }
      /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+( [0-9]+)?$/ { next }
      { print "bad exposition line " NR ": " $0; bad = 1 }
      END { exit bad }
    ' "${prom}"
    echo "exposition: line-grammar check passed, promtool not found (${prom})"
  fi
}

# jq -s FILTER over a JSONL document; skipped with a note when jq is absent.
check_jsonl() {
  local filter="$1" file="$2"
  if command -v jq > /dev/null; then
    jq -e -s "${filter}" "${file}" > /dev/null
    echo "jsonl: jq schema checks passed (${file})"
  else
    echo "jsonl: jq not found, schema checks skipped (${file})"
  fi
}

# Observation gates, one per bench/observe_report scenario:
#   scrape_gate device|control|fleet|tenant BUILD_DIR [OPS]
# The bench enforces each scenario's invariants itself (reconciliation and
# telescoping against the final counters, merged percentiles, tenant
# attribution, double-run byte-identity, disabled-plane bit-identity,
# watchdog fires under each storm and silence on each clean run, in-process
# scrape == file export) and exits nonzero on violation. Here every serving
# scenario (all but control) additionally holds its HTTP exporter up for a
# real external client: curl checks /healthz and byte-compares /metrics,
# /timeline.jsonl and the plane's own document (/shards.jsonl for fleet,
# /slo.jsonl for tenant) against the file exports. Then the exports' formats
# are validated: the exposition, the timeline's per-line schema and
# timestamp order, the plane's labeled families and document schema, and
# for control the side-by-side and actuation CSVs plus the fault campaign's
# GC-pacing demo.
scrape_gate() {
  local scenario="$1" build_dir="$2" ops="${3:-}"
  echo "=== verify pass: observe_report --scenario=${scenario} (${build_dir}) ==="
  local out="${build_dir}/${scenario}" doc=""
  local -a args=(--scenario="${scenario}" --export="${out}")
  if [ -n "${ops}" ]; then args+=(--ops="${ops}"); fi
  case "${scenario}" in
    fleet) doc=shards.jsonl ;;
    tenant) doc=slo.jsonl ;;
  esac
  if [ "${scenario}" = control ]; then
    "${build_dir}/bench/observe_report" "${args[@]}"
  else
    rm -f "${out}.port"
    "${build_dir}/bench/observe_report" "${args[@]}" \
      --serve=0 --serve-hold=30000 &
    local bench_pid=$!
    # The bench writes PREFIX.port once the run finished and the exports are
    # on disk, then holds the server up until the file is deleted.
    local waited=0
    while [ ! -f "${out}.port" ]; do
      if ! kill -0 "${bench_pid}" 2> /dev/null; then
        wait "${bench_pid}"
        echo "${scenario}: bench exited before serving" >&2
        return 1
      fi
      sleep 0.2
      waited=$((waited + 1))
      if [ "${waited}" -gt 1500 ]; then
        echo "${scenario}: timed out waiting for ${out}.port" >&2
        kill "${bench_pid}" 2> /dev/null || true
        return 1
      fi
    done
    local base
    base="http://127.0.0.1:$(cat "${out}.port")"
    if command -v curl > /dev/null; then
      local health route
      health="$(curl -sf "${base}/healthz")"
      grep -q '"status":"ok"' <<< "${health}"
      if [ -n "${doc}" ]; then grep -q '"shards":4' <<< "${health}"; fi
      for route in /metrics=prom /timeline.jsonl=jsonl ${doc:+/${doc}=${doc}}; do
        curl -sf "${base}${route%=*}" -o "${out}.scraped.${route#*=}"
        cmp "${out}.scraped.${route#*=}" "${out}.${route#*=}"
      done
      echo "${scenario}: live scrape byte-matches the file exports"
    else
      echo "${scenario}: curl not found, external scrape skipped"
    fi
    rm -f "${out}.port"  # Releases the hold.
    wait "${bench_pid}"
  fi

  check_exposition "${out}.prom"
  check_jsonl '
    length > 0
    and all(has("kind") and has("t_ns") and has("seq"))
    and all(select(.kind == "sample")
            | has("interval_ns") and (.values | type == "object"))
    and all(select(.kind == "event")
            | (.type | type == "string") and has("a") and has("b")
              and has("tenant"))
    and ([.[].t_ns] as $t | $t == ($t | sort))
  ' "${out}.jsonl"
  case "${scenario}" in
    control)
      awk -F, '
        NR == 1 { cols = NF; if (cols != 12) { print "bad header: " NF " cols"; exit 1 } next }
        NF != cols { print "ragged row " NR; exit 1 }
        END { if (NR < 2) { print "no data rows"; exit 1 } }
      ' "${out}.control.csv"
      awk -F, 'NR == 1 && $0 != "t_ns,seq,rule,observed,old_setting,new_setting" \
                 { print "bad actuation header"; exit 1 }
               END { if (NR < 2) { print "empty actuation log"; exit 1 } }' \
        "${out}.actuations.csv"
      echo "control: side-by-side and actuation CSVs well-formed"
      "${build_dir}/bench/fault_campaign" --ops=2000 --control
      ;;
    fleet)
      grep -q 'bandslim_shard_ops_total{shard="3"}' "${out}.prom"
      check_jsonl '
        length == 4
        and all(has("shard") and has("t_ns") and has("ops") and has("delta_ops")
                and has("routed_keys") and has("expected_share_permille")
                and has("actual_share_permille"))
        and ([.[].shard] == [0, 1, 2, 3])
      ' "${out}.shards.jsonl"
      ;;
    tenant)
      grep -q 'bandslim_tenant_ops_total{tenant="frontend"}' "${out}.prom"
      grep -q 'bandslim_keyspace_heat_max_share_permille' "${out}.prom"
      check_jsonl '
        length == 2
        and all(has("tenant") and has("name") and has("ops") and has("good")
                and has("bad") and has("shed") and has("errors")
                and has("latency_target_ns")
                and has("availability_target_permille")
                and has("allowed_bad_permille") and has("budget_spent_permille")
                and has("burn_fast_milli") and has("burn_slow_milli")
                and has("p99_ns") and has("dev_ops") and has("value_bytes")
                and has("pcie_h2d_bytes") and has("nand_pages_programmed")
                and has("taf_milli"))
        and ([.[].tenant] == [0, 1])
      ' "${out}.slo.jsonl"
      ;;
  esac
}

# Simulator-throughput regression gate. Release only: wall-clock numbers
# from a sanitized build measure the sanitizer, not the simulator, so the
# ASan pass skips it. The gate fails when any profile drops more than the
# tolerance below bench/baseline_sim_speed.json; regenerate the baseline
# with --write-baseline on the machine class that runs CI after intentional
# perf changes.
sim_speed_gate() {
  local build_dir="$1"
  echo "=== verify pass: sim_speed regression gate (${build_dir}) ==="
  "${build_dir}/bench/sim_speed" --ops=60000 --reps=5 \
    --check=bench/baseline_sim_speed.json --tolerance=0.15
}

# Cluster shard-scaling gates. The bench itself exits nonzero unless
# (1) a 1-shard cluster run is bit-identical in virtual time and device
# counters to the same ops on a bare KvSsd (the router adds zero simulated
# overhead), and (2) uniform-key 4-shard mixed throughput is >= 3x the
# 1-shard run. Here we additionally check the CSV shape: 2 distributions
# x 4 cluster sizes = 8 data rows.
shard_scaling() {
  local build_dir="$1" ops="${2:-6000}"
  echo "=== verify pass: cluster shard scaling (${build_dir}) ==="
  local out="${build_dir}/shard_scaling.csv"
  "${build_dir}/bench/abl_shard_scaling" --ops="${ops}" --csv="${out}"
  awk -F, '
    NR == 1 { if ($0 != "distribution,shards,ops,elapsed_ns,kops_per_sec,speedup")
                { print "bad header: " $0; exit 1 } next }
    NF != 6 { print "ragged row " NR; exit 1 }
    END { if (NR - 1 != 8) { print "expected 8 data rows, got " NR - 1; exit 1 } }
  ' "${out}"
  echo "shard scaling: N=1 identity + 4-shard speedup gates passed, CSV well-formed"
}

# Figure pins: each paper figure's stdout at --ops=3000 must match its
# golden file under bench/golden/ byte for byte (every number, not just the
# anchors figure_anchor_test bounds). The seven benches run concurrently.
figure_golden() {
  local build_dir="$1" golden name
  echo "=== verify pass: figure golden outputs (${build_dir}) ==="
  local -a pids=()
  for golden in bench/golden/fig*.txt; do
    name="$(basename "${golden}" .txt)"
    "${build_dir}/bench/${name}" --ops=3000 > "${build_dir}/${name}.out" &
    pids+=($!)
  done
  local pid
  for pid in "${pids[@]}"; do wait "${pid}"; done
  for golden in bench/golden/fig*.txt; do
    name="$(basename "${golden}" .txt)"
    cmp "${build_dir}/${name}.out" "${golden}"
  done
  echo "figure golden: ${#pids[@]} figures byte-identical to bench/golden/"
}

# One matrix leg's gates against an already-built tree. Sanitized runs are
# slower, so the asan-ubsan leg scales the cluster workloads down.
# Repository benchmark smoke run: one second per workload with per-layer
# tracing. perfbench itself checks every GET against its key -> bytes model,
# the determinism digest across passes and tracer exactness, and exits
# nonzero on any violation. It builds its own tree (perfbench/run.py).
perfbench_smoke() {
  local w
  for w in put_paper_m get_zipf_large cluster_observed campaign_4shard; do
    echo "=== verify pass: perfbench smoke (${w}) ==="
    python3 perfbench/run.py --workload "${w}" --seed 1 --seconds 1 --trace 1
  done
}

leg_gates() {
  local leg="$1" build_dir="$2"
  local fleet_ops=2000 tenant_ops=3000 shard_ops=6000
  case "${leg}" in
    release) ;;
    asan-ubsan) fleet_ops=1200 tenant_ops=1500 shard_ops=1500 ;;
    *) echo "unknown leg: ${leg} (release|asan-ubsan)" >&2; return 2 ;;
  esac
  figure_golden "${build_dir}"
  fault_campaign "${build_dir}"
  trace_export "${build_dir}"
  trace_roundtrip "${build_dir}"
  scrape_gate device "${build_dir}" 2000
  scrape_gate control "${build_dir}" 2000
  scrape_gate fleet "${build_dir}" "${fleet_ops}"
  scrape_gate tenant "${build_dir}" "${tenant_ops}"
  shard_scaling "${build_dir}" "${shard_ops}"
  if [ "${leg}" = release ]; then perfbench_smoke; fi
}

if [ "${1:-}" = --gates ]; then
  leg_gates "${2:?usage: ci/verify.sh --gates LEG BUILD_DIR}" \
    "${3:?usage: ci/verify.sh --gates LEG BUILD_DIR}"
  exit
fi

prefix="${1:-build-ci}"

# New code must use Inspect()/Hooks(): calling a [[deprecated]] accessor is a
# build error in CI, so the legacy API can only shrink.
run_pass release "${prefix}-release" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-Werror=deprecated-declarations"

leg_gates release "${prefix}-release"
sim_speed_gate "${prefix}-release"

run_pass asan-ubsan "${prefix}-asan" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-Werror=deprecated-declarations -fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

leg_gates asan-ubsan "${prefix}-asan"

echo "=== verify: all passes green ==="
