#!/usr/bin/env bash
# Tier-1 verification plus the bench, CLI and golden-replay smoke checks.
# CI's build-test job and its ASan job both run this script.
#
# Usage:
#   tools/check.sh [build-dir]
#
# Environment:
#   OPTIMUS_SANITIZE=address|thread   configure a sanitizer build (passed
#                                     through to CMake; default off)
#   OPTIMUS_THREADS=N                 default thread count for RunSweep's
#                                     (scenario, policy, repeat) grid and the
#                                     simulator's per-job fan-outs (results
#                                     are identical for any N)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

# One policy identity: a policy's placement, PAA, young-job damping and
# straggler handling live in its kPolicies row (src/sched/scheduler_registry.*),
# change only through PolicyAblation and are read once, by the Simulator
# (src/sim/simulator.{h,cc}). These names anywhere else mean a second, mutable
# copy of the row has come back.
policy_copies=$(grep -rnwE \
    'ApplySchedulerPolicy|use_paa|young_job_priority_factor|handling_enabled' \
    "${repo_root}/src" "${repo_root}/bench" "${repo_root}/tools" \
    "${repo_root}/examples" --exclude='scheduler_registry.*' \
    --exclude=simulator.h --exclude=simulator.cc --exclude=check.sh |
  grep -v 'ablation\.young_job_priority_factor' || true)
if [[ -n "${policy_copies}" ]]; then
  echo "policy traits outside the policy table and PolicyAblation:" >&2
  echo "${policy_copies}" >&2
  exit 1
fi

# One job generator: GenerateJobs and GenerateWorkload share one draw path in
# src/sim/workload.{h,cc}, with one arrival enum (ArrivalSpec::Kind) and one
# set of container-demand defaults (WorkloadSpec). These names mean a second
# generator, arrival enum or demand default has come back.
generator_copies=$(grep -rnwE \
    'GenerateArrivalTimes|ArrivalProcess|ArrivalProcessName|TraceReplayOptions|src/workload/generators' \
    "${repo_root}/src" "${repo_root}/bench" "${repo_root}/tools" \
    "${repo_root}/examples" "${repo_root}/tests" --exclude=check.sh || true)
if [[ -n "${generator_copies}" ]]; then
  echo "a second job generator outside src/sim/workload.{h,cc}:" >&2
  echo "${generator_copies}" >&2
  exit 1
fi

# No event queue: the events engine keeps each queued item once, in the
# Simulator state that owns it (src/sim/simulator_events.cc). These names mean
# a second copy of the queued items has come back.
event_queue_copies=$(grep -rnE \
    'EventQueue|SimKernelEvent|SimEventKind|src/sim/event_kernel' \
    "${repo_root}/src" "${repo_root}/bench" "${repo_root}/tools" \
    "${repo_root}/examples" "${repo_root}/tests" --exclude=check.sh || true)
if [[ -n "${event_queue_copies}" ]]; then
  echo "an event queue next to the Simulator's queued items:" >&2
  echo "${event_queue_copies}" >&2
  exit 1
fi

# One experiment runner: a repeated experiment is a ScenarioSpec run through
# RunSweep (src/workload/sweep.{h,cc}). These names mean a second repeat
# runner has come back.
runner_copies=$(grep -rnE \
    'RunExperiment|ExperimentConfig|ExperimentResult|NormalizedTo|ApplyTestbedConditions|src/sim/experiment' \
    "${repo_root}/src" "${repo_root}/bench" "${repo_root}/tools" \
    "${repo_root}/examples" "${repo_root}/tests" --exclude=check.sh || true)
if [[ -n "${runner_copies}" ]]; then
  echo "a second experiment runner next to RunSweep:" >&2
  echo "${runner_copies}" >&2
  exit 1
fi

# One job record: explicit jobs are a scenario's "jobs" array, read by the
# scenario parser and checked by JobSpec::Validate (src/cluster/job.{h,cc}).
# These names mean the lossy workload CSV has come back.
csv_copies=$(grep -rnE \
    'WriteWorkloadCsv|ReadWorkloadCsv|src/sim/trace_replay|workload-csv' \
    "${repo_root}/src" "${repo_root}/bench" "${repo_root}/tools" \
    "${repo_root}/examples" "${repo_root}/tests" --exclude=check.sh || true)
if [[ -n "${csv_copies}" ]]; then
  echo "a second job file format next to the job record:" >&2
  echo "${csv_copies}" >&2
  exit 1
fi

# One job table and one scheduler view: the Simulator's job records live in
# src/sim/job_table.{h,cc}, and src/sched builds every SchedJob (MakeSchedJob)
# without seeing the simulator. These names outside the table, a src/sched
# include of src/sim, or the deleted header builder and dead runtime field
# mean a second copy of the bookkeeping or the view has come back.
table_copies=$(grep -rnwE 'pending_specs_|pending_heap_|job_refs_|retired_' \
    "${repo_root}/src" --exclude=job_table.h --exclude=job_table.cc || true)
sched_sim_includes=$(grep -rn '#include "src/sim/' "${repo_root}/src/sched" || true)
view_copies=$(grep -rnE 'frozen_scalings|SchedJobHeader' \
    "${repo_root}/src" "${repo_root}/bench" "${repo_root}/tools" \
    "${repo_root}/examples" "${repo_root}/tests" --exclude=check.sh || true)
if [[ -n "${table_copies}${sched_sim_includes}${view_copies}" ]]; then
  echo "job bookkeeping outside JobTable, or a second scheduler view:" >&2
  printf '%s\n' "${table_copies}" "${sched_sim_includes}" "${view_copies}" | grep . >&2
  exit 1
fi

cmake -B "${build_dir}" -S "${repo_root}" \
  -DOPTIMUS_SANITIZE="${OPTIMUS_SANITIZE:-}"
cmake --build "${build_dir}" -j "$(nproc)"

ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

# Scratch outputs of the checks below; the BENCH_*_smoke.json files stay in
# the working directory.
tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

# Perf smoke: a seconds-scale scheduling round with and without the speed
# surface. Routed away from the committed full-scale BENCH_sched.json.
"${build_dir}/bench/bench_fig12_scalability" --smoke --json=BENCH_sched_smoke.json

# Refit micro smoke: every BM_ConvergenceFit size (each iteration a real
# refit), BM_RemoveOutliers size (its outlier pass), the refit's
# two-unknown lane solves one at a time (BM_NnlsGramSolveTwoUnknowns) and in
# one batched call (BM_NnlsGramSolveLanes), and a short pool fan-out after an
# idle gap (BM_ParallelForShortFanOut: runners per call and the caller's
# share) at a token time budget, plus the micro_core section, into the same
# smoke JSON.
"${build_dir}/bench/bench_micro_core" \
  --benchmark_filter='ConvergenceFit|RemoveOutliers|NnlsGramSolveTwoUnknowns|NnlsGramSolveLanes|ParallelForShortFanOut' \
  --benchmark_min_time=0.01 --json=BENCH_sched_smoke.json

# Event-kernel smoke: discrete-event engine vs interval engine on small
# regimes; exits 3 if the engines diverge beyond the documented tolerance
# (docs/ALGORITHMS.md section 16) or a row does not reproduce on repeat.
"${build_dir}/bench/bench_events" --smoke --json=BENCH_events_smoke.json
for key in headline_speedup metrics_ok events_processed; do
  grep -q "\"${key}\"" BENCH_events_smoke.json || {
    echo "BENCH_events_smoke.json is missing ${key}" >&2; exit 1;
  }
done

# Scale smoke: one scale cell (10k jobs x 16k servers) through the
# child-process --cell path; exits 3 if the cell fails. Bitwise determinism
# across (engine, threads) and the no-op knobs is tier-1's determinism sweep
# (tests/determinism_sweep_test.cc) over every committed scenario.
"${build_dir}/bench/bench_scale" --smoke --json=BENCH_scale_smoke.json
for key in scale_cells peak_rss_mib; do
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

# Observability smoke: registry/flight recorder on vs off; exits 3 if
# observability perturbs the simulation or exports diverge across repeats or
# thread counts.
"${build_dir}/bench/bench_obs" --smoke --json=BENCH_obs_smoke.json

# One perf row schema (SetPerfRow, bench/bench_util.h): every row of the
# scale, net, obs and events smokes carries the shared columns. A row is an
# object with a "cell"; JsonObject writes one key per line and never repeats
# one, so equal counts mean every row has each column.
for f in BENCH_scale_smoke.json BENCH_net_smoke.json BENCH_obs_smoke.json \
         BENCH_events_smoke.json; do
  rows=$(grep -c '"cell":' "${f}" || true)
  for key in wall_s sim_s sim_s_per_wall_s trace_digest; do
    [[ "${rows}" -gt 0 && "$(grep -c "\"${key}\":" "${f}")" == "${rows}" ]] || {
      echo "${f}: not every one of its ${rows} rows carries ${key}" >&2; exit 1;
    }
  done
done

# Policy-catalog smoke: every registered policy (goodput / synergy / dl2
# included) on the batch-adaptive scenario. Exits 3 if no policy other than
# optimus / optimus_rack beats plain optimus on average JCT
# (docs/POLICIES.md).
"${build_dir}/bench/bench_policies" --smoke \
  --scenario="${repo_root}/scenarios/batch_adaptive.json" \
  --json=BENCH_policies_smoke.json
for key in adaptive_wins policies_compared best_other_policy; do
  grep -q "\"${key}\"" BENCH_policies_smoke.json || {
    echo "BENCH_policies_smoke.json is missing ${key}" >&2; exit 1;
  }
done

# --scheduler and the underscore flag aliases are gone: each must exit 2
# through the unknown-flag path, naming the flag.
for flag in --scheduler=drf --fault_plan=crash@0:server=0; do
  name="${flag%%=*}"
  rc=0
  "${build_dir}/tools/optimus_sim" --jobs=5 --seed=3 "${flag}" \
    2> "${tmp_dir}/removed_flag.err" > /dev/null || rc=$?
  [[ "${rc}" == 2 ]] && grep -q -- "${name}" "${tmp_dir}/removed_flag.err" || {
    echo "${name} did not exit 2 naming the flag (exit ${rc})" >&2; exit 1;
  }
done

# A bad flag value is a config error: it must exit 2 with stderr naming the
# flag or the config field (for a fault plan, the bad server id), not abort.
# Checked on optimus_sim's generated and scenario paths (a flag, or a file
# with one bad value) and on optimus_serve. A 1e-300 s interval would run
# for ever, 2e9 jobs or servers would exhaust memory, and a bursty spike mean
# of 3e19 arrivals would hang the generator's Poisson draw.
smoke_scenario="${repo_root}/scenarios/smoke/grid_a.json"
serve_scenario="${repo_root}/tests/golden/serve/scenario.json"
sed 's/"knobs": {/"knobs": {"interval_s": 1e-300, /' "${smoke_scenario}" \
  > "${tmp_dir}/tiny_interval.json"
sed 's/"jobs": 6,/"jobs": 2000000000,/' "${smoke_scenario}" > "${tmp_dir}/many_jobs.json"
sed 's/"kind": "uniform", "window_s": 6000.0/"kind": "bursty", "spike_multiplier": 1e19/' \
  "${smoke_scenario}" > "${tmp_dir}/bursty_mean.json"
for entry in \
    "sim|--jobs=0|--jobs" \
    "sim|--repeats=0|--repeats" \
    "sim|--interval=-5|interval_s" \
    "sim|--interval=1e-300|interval_s" \
    "sim|--jobs=2000000000|workload.jobs" \
    "sim|--servers=2000000000|cluster.classes" \
    "sim|--threads=-2|threads" \
    "sim|--background-share=1.5|background_share" \
    "sim|--task-failure-prob=nan|task_failure_prob" \
    "sim|--arrivals=bogus|--arrivals" \
    "sim|--fault-plan=crash@100:server=1.5|'1.5'" \
    "sim|--fault-plan=rack@100:servers=0-3000000000|'3000000000'" \
    "scenario|--repeats=0|repeats" \
    "scenario|--flight-recorder-depth=-1|flight_recorder_depth" \
    "file|${tmp_dir}/tiny_interval.json|interval_s" \
    "file|${tmp_dir}/many_jobs.json|workload.jobs" \
    "file|${tmp_dir}/bursty_mean.json|workload.arrivals.rate_per_interval" \
    "serve|--threads=-2|threads"; do
  IFS='|' read -r surface flag name <<< "${entry}"
  rc=0
  case "${surface}" in
    sim) "${build_dir}/tools/optimus_sim" "${flag}" ;;
    scenario) "${build_dir}/tools/optimus_sim" --scenario="${smoke_scenario}" "${flag}" ;;
    file) "${build_dir}/tools/optimus_sim" --scenario="${flag}" ;;
    serve) "${build_dir}/tools/optimus_serve" --scenario="${serve_scenario}" "${flag}" \
             < /dev/null ;;
  esac 2> "${tmp_dir}/bad_value.err" > /dev/null || rc=$?
  [[ "${rc}" == 2 ]] && grep -q -- "${name}" "${tmp_dir}/bad_value.err" || {
    echo "${surface} ${flag} did not exit 2 naming ${name} (exit ${rc})" >&2; exit 1;
  }
done
# With --scenario, the flags that only build a generated run would be ignored:
# optimus_sim must exit 2 naming each of them.
generated_only=(--jobs=3 --servers=4 --arrivals=poisson --steps-per-epoch=10
  --interval=60 --stragglers=0.9 --fault-plan=crash@0:server=0
  --task-failure-prob=0.1 --checkpoint-period=60 --no-audit
  --background-share=0.1 --oracle)
rc=0
"${build_dir}/tools/optimus_sim" --scenario="${repo_root}/scenarios/fig11_testbed.json" \
  "${generated_only[@]}" 2> "${tmp_dir}/generated_only.err" > /dev/null || rc=$?
[[ "${rc}" == 2 ]] || {
  echo "--scenario with generated-run flags exited ${rc}, not 2" >&2; exit 1;
}
for flag in "${generated_only[@]}"; do
  name="${flag%%=*}"
  name="${name/#--no-/--}"
  grep -qw -- "${name}" "${tmp_dir}/generated_only.err" || {
    echo "--scenario with ${flag} did not name ${name}" >&2; exit 1;
  }
done

# The service answers the same job count in a scenario_swap with ok=false
# naming it, and keeps serving.
printf '{"op": "scenario_swap", "path": "%s"}\n' "${tmp_dir}/many_jobs.json" |
  "${build_dir}/tools/optimus_serve" --scenario="${serve_scenario}" > "${tmp_dir}/swap.out"
grep -q '"ok":false.*workload\.jobs' "${tmp_dir}/swap.out" || {
  echo "scenario_swap to 2e9 jobs did not answer ok=false naming workload.jobs:" \
       "$(cat "${tmp_dir}/swap.out")" >&2
  exit 1
}

# A bad job record exits 2 with a message naming its jobs[i] entry: a
# repeated id (jobs[1]), a non-finite arrival_s (jobs[0]; JSON has no NaN,
# so null stands in), a dataset_scale past 2^53 steps per epoch and one past 2^47 dataset
# bytes within that step cap, a grid past 2^20 cells and an unknown model.
good_job='{"id": 0, "model": "DSSM", "dataset_scale": 0.01}'
for case in \
    'dup_id|jobs[1].id|{"id": 0, "model": "DSSM"}' \
    'nan_arrival|jobs[0].arrival_s|{"id": 1, "model": "DSSM", "arrival_s": null}' \
    'huge_scale|jobs[0].dataset_scale|{"id": 1, "model": "DSSM", "dataset_scale": 1e300}' \
    'huge_dataset|jobs[0].dataset_scale|{"id": 1, "model": "DSSM", "dataset_scale": 1e9}' \
    'huge_grid|jobs[0].max_workers|{"id": 1, "model": "DSSM", "max_ps": 2, "max_workers": 524289}' \
    'unknown_model|jobs[0].model|{"id": 1, "model": "GPT-7"}'; do
  IFS='|' read -r name entry job <<< "${case}"
  jobs="[${job}, ${good_job}]"
  [[ "${name}" == dup_id ]] && jobs="[${good_job}, ${job}]"
  printf '{"schema": "scenario-v2", "name": "%s", "policy": "optimus",\n "jobs": %s}\n' \
    "${name}" "${jobs}" > "${tmp_dir}/${name}.json"
  rc=0
  "${build_dir}/tools/optimus_sim" --scenario="${tmp_dir}/${name}.json" \
    2> "${tmp_dir}/bad_jobs.err" > /dev/null || rc=$?
  [[ "${rc}" == 2 ]] && grep -qF "${entry}:" "${tmp_dir}/bad_jobs.err" || {
    echo "${name}.json did not exit 2 naming ${entry} (exit ${rc})" >&2; exit 1;
  }
done

# A default scenario replays optimus_sim's jobs: the flag defaults (9 jobs,
# testbed, seed 42, 80 steps per epoch, stragglers 0.12) build
# scenarios/fig11_testbed.json's setup, so one policy at one repeat dumps the
# same jobs and prints the same run. Spliced into the scenario in place of its
# workload, the dump replays that run too.
"${build_dir}/tools/optimus_sim" --dump-jobs="${tmp_dir}/cli.jobs.json" \
  > "${tmp_dir}/cli.out"
"${build_dir}/tools/optimus_sim" \
  --scenario="${repo_root}/scenarios/fig11_testbed.json" --policy=optimus \
  --repeats=1 --dump-jobs="${tmp_dir}/scenario.jobs.json" > "${tmp_dir}/scenario.out"
sed -n '1,/"workload"/p' "${repo_root}/scenarios/fig11_testbed.json" |
  sed '$s/"workload".*/"jobs":/' > "${tmp_dir}/fig11_jobs.json"
cat "${tmp_dir}/scenario.jobs.json" >> "${tmp_dir}/fig11_jobs.json"
sed -n '/"cluster"/,$p' "${repo_root}/scenarios/fig11_testbed.json" |
  sed '1s/^/,/' >> "${tmp_dir}/fig11_jobs.json"
"${build_dir}/tools/optimus_sim" --scenario="${tmp_dir}/fig11_jobs.json" \
  --policy=optimus --repeats=1 > "${tmp_dir}/replay.out"
cli_run=$(grep '^policy optimus: completed' "${tmp_dir}/cli.out" || true)
scenario_run=$(grep '^policy optimus: completed' "${tmp_dir}/scenario.out" || true)
replay_run=$(grep '^policy optimus: completed' "${tmp_dir}/replay.out" || true)
cmp -s "${tmp_dir}/cli.jobs.json" "${tmp_dir}/scenario.jobs.json" &&
  [[ -n "${cli_run}" && "${cli_run}" == "${scenario_run}" &&
     "${cli_run}" == "${replay_run}" ]] || {
  echo "optimus_sim's defaults did not replay scenarios/fig11_testbed.json:" \
       "'${cli_run}' vs '${scenario_run}' vs its dump '${replay_run}'" >&2
  exit 1
}

# Machine-readable policy catalog.
"${build_dir}/tools/optimus_sim" --policy list --format=json \
  | grep -q '"name": "goodput"' || {
  echo "--policy list --format=json is missing goodput" >&2; exit 1;
}

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
# metric keys in Prometheus text format (the catalog is part of the
# observability contract, docs/OBSERVABILITY.md), and its JSON report must
# carry the format tag.
metrics_tmp="${tmp_dir}/metrics"
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
"${build_dir}/tools/optimus_sim" --jobs=10 --seed=7 \
  --metrics-out="${metrics_tmp}" --metrics-format=json > /dev/null
grep -q '"optimus-run-report-v1"' "${metrics_tmp}" || {
  echo "JSON run report is missing the format tag" >&2; exit 1;
}

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

# The committed golden sessions must replay byte for byte through the real
# binary, errors included (their ok=false lines are part of the golden):
# basic, the what-if burst (back-to-back queries against cached baselines,
# id collisions, a binding cluster) and the flight ring (report snapshots
# with 0, a few and more than 256 new flight events since the previous one,
# on its own genesis).
replay_golden() {  # <genesis scenario file> <requests> <responses> [flags...]
  local dir="${repo_root}/tests/golden/serve"
  "${build_dir}/tools/optimus_serve" --scenario="${dir}/$1" "${@:4}" \
    --replay="${dir}/$2.requests.ndjson" --replay-out="${tmp_dir}/$3.ndjson" 2> /dev/null
  cmp -s "${tmp_dir}/$3.ndjson" "${dir}/$3.responses.ndjson" || {
    echo "optimus_serve replay diverged from tests/golden/serve/$3.responses.ndjson" >&2
    exit 1
  }
}
replay_golden scenario.json basic basic
replay_golden scenario.json basic basic_events --engine=events
replay_golden scenario.json whatif_burst whatif_burst
replay_golden flight_wrap.scenario.json flight_wrap flight_wrap

# Exit-code contract: a config error must exit 2, not 0 or a crash.
set +e
"${build_dir}/tools/optimus_serve" --scenario=/nonexistent.json 2> /dev/null
serve_code=$?
set -e
[[ "${serve_code}" == 2 ]] || {
  echo "optimus_serve exited ${serve_code} (expected 2) on a bad scenario" >&2
  exit 1
}

# Event-engine CLI smoke: a short run through --engine=events must report
# its event count in the metrics export. Counters are views of the live run:
# the events engine's last completions land after its last scheduling round,
# and the export must still count every completion the run reports.
"${build_dir}/tools/optimus_sim" --engine=events --jobs=30 --seed=7 \
  --metrics-out="${metrics_tmp}" --metrics-format=prom > "${tmp_dir}/events.out"
grep -q '^optimus_events_processed_total' "${metrics_tmp}" || {
  echo "events engine did not export optimus_events_processed_total" >&2
  exit 1
}
reported=$(sed -nE 's/.*completed ([0-9]+)\/30.*/\1/p' "${tmp_dir}/events.out")
exported=$(awk '$1 == "optimus_jobs_completed_total" {print $2}' "${metrics_tmp}")
[[ -n "${reported}" && "${reported}" == "${exported}" ]] || {
  echo "exported optimus_jobs_completed_total=${exported}," \
       "run reported completed ${reported}/30" >&2
  exit 1
}

echo "check.sh: OK"
