#!/usr/bin/env bash
# Tier-1 verification plus a perf smoke bench.
#
# Usage:
#   tools/check.sh [build-dir]
#
# Environment:
#   OPTIMUS_SANITIZE=address|thread   configure a sanitizer build (passed
#                                     through to CMake; default off)
#   OPTIMUS_THREADS=N                 thread count for the parallel runner
#                                     (results are identical for any N)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DOPTIMUS_SANITIZE="${OPTIMUS_SANITIZE:-}"
cmake --build "${build_dir}" -j "$(nproc)"

ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

# Perf smoke: a seconds-scale scheduling round with and without the speed
# surface. Routed away from the committed full-scale BENCH_sched.json.
"${build_dir}/bench/bench_fig12_scalability" --smoke --json=BENCH_sched_smoke.json

# Refit micro smoke: every BM_ConvergenceFit size (each iteration a real
# refit) and BM_RemoveOutliers size (its outlier pass) at a token time
# budget, plus the micro_core section, into the same smoke JSON.
"${build_dir}/bench/bench_micro_core" --benchmark_filter='ConvergenceFit|RemoveOutliers' \
  --benchmark_min_time=0.01 --json=BENCH_sched_smoke.json

# Event-kernel smoke: discrete-event engine vs interval engine on small
# regimes; exits 3 if the engines diverge beyond the documented tolerance
# (docs/ALGORITHMS.md section 16) or a row does not reproduce on repeat.
"${build_dir}/bench/bench_events" --smoke --json=BENCH_events_smoke.json

# Scale smoke: one scale cell (10k jobs x 16k servers) through the
# child-process --cell path; exits 3 if the cell fails. Bitwise determinism
# across (engine, threads) and the no-op knobs is tier-1's determinism sweep
# (tests/determinism_sweep_test.cc) over every committed scenario.
"${build_dir}/bench/bench_scale" --smoke --json=BENCH_scale_smoke.json
for key in scale_cells trace_digest; do
  grep -q "\"${key}\"" BENCH_scale_smoke.json || {
    echo "BENCH_scale_smoke.json is missing ${key}" >&2; exit 1;
  }
done

# Network smoke (docs/NETWORK.md): the optimus vs optimus_rack comparison on
# the oversubscribed fabric; exits 3 if rack-aware placement stops beating
# the baseline.
"${build_dir}/bench/bench_net" --smoke \
  --fabric_scenario="${repo_root}/scenarios/oversubscribed_fabric.json" \
  --json=BENCH_net_smoke.json
for key in rack_aware_wins net_contended_flows; do
  grep -q "\"${key}\"" BENCH_net_smoke.json || {
    echo "BENCH_net_smoke.json is missing ${key}" >&2; exit 1;
  }
done

# Policy-catalog smoke: every registered policy (goodput / synergy / dl2
# included) on the batch-adaptive scenario. Exits 3 if no policy other than
# optimus / optimus_rack beats plain optimus on average JCT
# (docs/POLICIES.md).
"${build_dir}/bench/bench_policies" --smoke \
  --scenario="${repo_root}/scenarios/batch_adaptive.json" \
  --json=BENCH_policies_smoke.json
grep -q '"adaptive_wins"' BENCH_policies_smoke.json || {
  echo "BENCH_policies_smoke.json is missing adaptive_wins" >&2; exit 1;
}

# Observability smoke: registry/flight recorder on vs off; exits nonzero
# if observability perturbs the simulation or exports diverge across
# thread counts.
"${build_dir}/bench/bench_obs" --smoke --json=BENCH_obs_smoke.json

# Scenario-sweep smoke: a 2x2 grid (two tiny scenarios x two policies each)
# through optimus_sweep. Exits nonzero on a scenario-validation error, an
# incomplete job, or an invariant-audit violation. (--out routed away from
# the committed BENCH_scenarios.json golden.)
"${build_dir}/tools/optimus_sweep" \
  "${repo_root}/scenarios/smoke/grid_a.json" \
  "${repo_root}/scenarios/smoke/grid_b.json" \
  --out=BENCH_scenarios_smoke.json > /dev/null
grep -q '"format": "optimus-sweep-report-v1"' BENCH_scenarios_smoke.json || {
  echo "BENCH_scenarios_smoke.json is missing the format tag" >&2; exit 1;
}

# Every committed scenario must carry the scenario-v2 schema version.
# (tests/golden/serve/*.scenario.json stay v1: they pin v1 loading.)
for f in "${repo_root}"/scenarios/*.json "${repo_root}"/scenarios/smoke/*.json; do
  grep -q '"schema": "scenario-v2"' "${f}" || {
    echo "${f} is missing \"schema\": \"scenario-v2\"" >&2; exit 1;
  }
done

# The committed network scenarios must carry a network block naming a model
# the parser knows (docs/SCENARIOS.md, `network` key).
for f in oversubscribed_fabric allreduce_mix; do
  grep -q '"network"' "${repo_root}/scenarios/${f}.json" || {
    echo "scenarios/${f}.json is missing its \"network\" block" >&2; exit 1;
  }
  grep -Eq '"model": "(flat|topology|contention)"' \
    "${repo_root}/scenarios/${f}.json" || {
    echo "scenarios/${f}.json has an unknown network model" >&2; exit 1;
  }
done

# Metrics-export smoke: a short instrumented run must produce the core
# metric keys in Prometheus text format.
metrics_tmp="$(mktemp)"
trap 'rm -f "${metrics_tmp}"' EXIT
"${build_dir}/tools/optimus_sim" --jobs=10 --seed=7 \
  --metrics-out="${metrics_tmp}" --metrics-format=prom > /dev/null
for key in optimus_intervals_total optimus_jobs_completed_total \
           optimus_scalings_total optimus_audit_checks_total \
           optimus_speed_evals_total optimus_alloc_grants_total \
           optimus_conv_fits_total optimus_jct_seconds_count \
           optimus_sim_time_seconds optimus_wall_schedule_seconds; do
  grep -q "^${key}" "${metrics_tmp}" || {
    echo "metrics export is missing ${key}" >&2; exit 1;
  }
done

# Service daemon smoke: replay the committed 200-request log through
# optimus_serve (docs/SERVICE.md). Exit 0 required — exit 3 would mean an
# invariant-audit violation propagated out of the session. The service
# metrics export must carry the request counter and a p99 latency quantile.
"${build_dir}/tools/optimus_serve" \
  --scenario="${repo_root}/tests/golden/serve/scenario.json" \
  --replay="${repo_root}/tests/golden/serve/smoke.requests.ndjson" \
  --replay-out=/dev/null \
  --metrics-out="${metrics_tmp}" --metrics-format=json 2> /dev/null
grep -q '"optimus_requests_total"' "${metrics_tmp}" || {
  echo "service export is missing optimus_requests_total" >&2; exit 1;
}
grep -q '"p99"' "${metrics_tmp}" || {
  echo "service export is missing the p99 latency quantile" >&2; exit 1;
}

# The committed golden session must replay byte for byte through the real
# binary, errors included (its ok=false lines are part of the golden).
serve_out="$(mktemp)"
trap 'rm -f "${metrics_tmp}" "${serve_out}"' EXIT
"${build_dir}/tools/optimus_serve" \
  --scenario="${repo_root}/tests/golden/serve/scenario.json" \
  --replay="${repo_root}/tests/golden/serve/basic.requests.ndjson" \
  --replay-out="${serve_out}" 2> /dev/null
cmp -s "${serve_out}" "${repo_root}/tests/golden/serve/basic.responses.ndjson" || {
  echo "optimus_serve replay diverged from tests/golden/serve/basic.responses.ndjson" >&2
  exit 1
}

# Exit-code contract: a config error must exit 2, not 0 or a crash.
set +e
"${build_dir}/tools/optimus_serve" --scenario=/nonexistent.json 2> /dev/null
serve_code=$?
set -e
[[ "${serve_code}" == 2 ]] || {
  echo "optimus_serve exited ${serve_code} (expected 2) on a bad scenario" >&2
  exit 1
}

# Event-engine CLI smoke: the same short run through --engine=events must
# report its event count in the metrics export.
"${build_dir}/tools/optimus_sim" --jobs=10 --seed=7 --engine=events \
  --metrics-out="${metrics_tmp}" --metrics-format=prom > /dev/null
grep -q '^optimus_events_processed_total' "${metrics_tmp}" || {
  echo "events engine did not export optimus_events_processed_total" >&2
  exit 1
}

echo "check.sh: OK"
