#include "src/controller/controller.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"
#include "src/models/model_zoo.h"
#include "src/sched/optimus_allocator.h"
#include "src/sched/scheduler_registry.h"

namespace optimus {

namespace {

const SchedulerPolicyInfo& OptimusPolicy() {
  const SchedulerPolicyInfo* info = SchedulerRegistry::Global().Find("optimus");
  OPTIMUS_CHECK(info != nullptr);
  return *info;
}

}  // namespace

OptimusController::OptimusController(ControllerOptions options) : options_(options) {}

void OptimusController::RegisterJob(const JobSpec& spec,
                                    const std::vector<SpeedSample>& pre_run) {
  OPTIMUS_CHECK(spec.model != nullptr);
  OPTIMUS_CHECK(!HasJob(spec.id)) << "job " << spec.id << " already registered";
  ManagedJob job;
  job.spec = spec;
  job.speed = SpeedModel(spec.mode, spec.GlobalBatch());
  for (const SpeedSample& sample : pre_run) {
    job.speed.AddSample(sample);
  }
  job.speed.Fit();
  jobs_.emplace(spec.id, std::move(job));
}

void OptimusController::ReportObservation(const JobObservation& observation) {
  ManagedJob& job = Get(observation.job_id);
  job.steps_done = std::max(job.steps_done, observation.steps_done);
  for (const LossSample& sample : observation.new_loss_points) {
    job.convergence.AddSample(sample.step, sample.loss);
  }
  job.convergence.Fit();
  if (observation.measured_speed > 0.0 &&
      ActiveAllocation(job.current, job.spec.comm)) {
    // All-reduce jobs run no PS: their samples go on the p = 1 row.
    const int sample_ps =
        job.spec.comm == CommMode::kAllReduce ? 1 : job.current.num_ps;
    job.speed.AddSample(sample_ps, job.current.num_workers, observation.measured_speed);
    job.speed.Fit();
  }
}

void OptimusController::NotifyLearningRateChange(int job_id) {
  Get(job_id).convergence.Reset();
}

void OptimusController::CompleteJob(int job_id) {
  OPTIMUS_CHECK(HasJob(job_id)) << "unknown job " << job_id;
  jobs_.erase(job_id);
}

bool OptimusController::HasJob(int job_id) const { return jobs_.count(job_id) > 0; }

const OptimusController::ManagedJob& OptimusController::Get(int job_id) const {
  auto it = jobs_.find(job_id);
  OPTIMUS_CHECK(it != jobs_.end()) << "unknown job " << job_id;
  return it->second;
}

OptimusController::ManagedJob& OptimusController::Get(int job_id) {
  auto it = jobs_.find(job_id);
  OPTIMUS_CHECK(it != jobs_.end()) << "unknown job " << job_id;
  return it->second;
}

double OptimusController::EstimateRemainingEpochs(int job_id) const {
  const ManagedJob& job = Get(job_id);
  if (job.convergence.fitted()) {
    return job.convergence.PredictRemainingEpochs(
        job.steps_done, job.spec.convergence_delta, job.spec.patience,
        job.spec.StepsPerEpoch());
  }
  return kDefaultRemainingEpochs;
}

double OptimusController::EstimateSpeed(int job_id, int num_ps, int num_workers) const {
  const ManagedJob& job = Get(job_id);
  if (!job.speed.fitted() || num_ps < 1 || num_workers < 1) {
    return 0.0;
  }
  return job.speed.Estimate(num_ps, num_workers);
}

Allocation OptimusController::CurrentAllocation(int job_id) const {
  return Get(job_id).current;
}

SchedJob OptimusController::MakeSchedJob(const ManagedJob& job) const {
  SchedJob sj = SchedJobHeader(job.spec);
  sj.remaining_epochs = EstimateRemainingEpochs(job.spec.id);
  // All-reduce jobs' samples lie on the p = 1 row (ReportObservation pins
  // them there), and so does their estimate.
  const double spe = static_cast<double>(job.spec.StepsPerEpoch());
  sj.speed = SpeedEstimate::Fitted(job.speed, spe,
                                   /*pin_ps=*/job.spec.comm == CommMode::kAllReduce);

  // Young jobs (progress below the cutoff, per the convergence model's own
  // total-epoch estimate) get damped marginal gains (§4.1).
  bool young = true;
  if (job.convergence.fitted()) {
    const double total = static_cast<double>(job.convergence.PredictTotalEpochs(
        job.spec.convergence_delta, job.spec.patience, job.spec.StepsPerEpoch()));
    if (total > 0.0) {
      young = job.steps_done / spe / total < kYoungJobProgressCutoff;
    }
  }
  if (young) {
    sj.priority_factor = OptimusPolicy().traits.young_job_priority_factor;
  }
  return sj;
}

ScheduleDecision OptimusController::Schedule(const std::vector<Server>& servers) {
  ScheduleDecision decision;
  if (jobs_.empty()) {
    return decision;
  }

  Resources reference = jobs_.begin()->second.spec.worker_demand;
  Resources capacity = PlaceableCapacity(servers, reference);

  // Jobs whose checkpoint budget is spent keep their allocation (frozen).
  std::vector<ManagedJob*> frozen;
  std::vector<ManagedJob*> schedulable;
  for (auto& [id, job] : jobs_) {
    if (ActiveAllocation(job.current, job.spec.comm) &&
        !ScalingAllowed(job.rescalings, options_.checkpoint)) {
      frozen.push_back(&job);
      capacity -= job.spec.worker_demand * job.current.num_workers +
                  job.spec.ps_demand * job.current.num_ps;
    } else {
      schedulable.push_back(&job);
    }
  }

  std::vector<SchedJob> sched_jobs;
  sched_jobs.reserve(schedulable.size());
  for (const ManagedJob* job : schedulable) {
    sched_jobs.push_back(MakeSchedJob(*job));
  }
  const std::vector<Allocation> alloc = OptimusAllocator().Allocate(sched_jobs, capacity);

  // Placement inputs: frozen jobs first, then schedulable ones; `order`
  // names the job at each input position.
  std::vector<ManagedJob*> order = frozen;
  order.insert(order.end(), schedulable.begin(), schedulable.end());
  std::vector<PlacementJobInput> inputs;
  inputs.reserve(order.size());
  for (const ManagedJob* job : frozen) {
    inputs.push_back({job->spec.id, job->current, job->spec.worker_demand,
                      job->spec.ps_demand, job->spec.comm});
  }
  for (size_t i = 0; i < schedulable.size(); ++i) {
    const ManagedJob* job = schedulable[i];
    inputs.push_back({job->spec.id, alloc[i], job->spec.worker_demand,
                      job->spec.ps_demand, job->spec.comm});
  }
  std::vector<Server> free_servers = servers;
  std::vector<PlacedJob> placed = PlaceJobs(OptimusPolicy().placement, inputs, &free_servers);

  for (size_t i = 0; i < order.size(); ++i) {
    ManagedJob& job = *order[i];
    const int id = job.spec.id;
    const Allocation a = placed[i].alloc;  // zero when not placed
    if (ActiveAllocation(a, job.spec.comm)) {
      if (ActiveAllocation(job.current, job.spec.comm) && !(a == job.current)) {
        ++job.rescalings;
      }
      job.current = a;
      decision.allocations[id] = a;
      decision.placements[id] = std::move(placed[i].placement);
    } else {
      job.current = Allocation{};
      decision.paused.push_back(id);
    }
  }
  std::sort(decision.paused.begin(), decision.paused.end());
  return decision;
}

// ---------------------------------------------------------------------------
// State persistence. Line-oriented text format, versioned:
//   optimus-controller-state v1
//   job <id>
//   spec <model> <mode> <delta> <patience> <batch> <mbatch> <arrival> <scale>
//        <max_ps> <max_w> <wd cpu mem gpu bw> <pd cpu mem gpu bw> <lr_drop...>
//   progress <steps_done> <p> <w> <rescalings>
//   conv <n> followed by n "step loss" lines
//   speed <n> followed by n "p w speed" lines
//   end
// ---------------------------------------------------------------------------

namespace {

void WriteResources(std::ostream& os, const Resources& r) {
  os << " " << r.cpu() << " " << r.memory_gb() << " " << r.gpu() << " "
     << r.bandwidth_gbps();
}

Resources ReadResources(std::istream& is) {
  double cpu = 0.0;
  double mem = 0.0;
  double gpu = 0.0;
  double bw = 0.0;
  is >> cpu >> mem >> gpu >> bw;
  return Resources(cpu, mem, gpu, bw);
}

}  // namespace

std::string OptimusController::SaveState() const {
  std::ostringstream os;
  os.precision(17);
  os << "optimus-controller-state v1\n";
  for (const auto& [id, job] : jobs_) {
    const JobSpec& spec = job.spec;
    os << "job " << id << "\n";
    os << "spec " << spec.model->name << " "
       << (spec.mode == TrainingMode::kSync ? "sync" : "async") << " "
       << spec.convergence_delta << " " << spec.patience << " " << spec.global_batch
       << " " << spec.async_minibatch << " " << spec.arrival_time_s << " "
       << spec.dataset_scale << " " << spec.max_ps << " " << spec.max_workers;
    WriteResources(os, spec.worker_demand);
    WriteResources(os, spec.ps_demand);
    if (spec.lr_drop.has_value()) {
      os << " lr_drop " << spec.lr_drop->epoch << " " << spec.lr_drop->c0 << " "
         << spec.lr_drop->c2;
    } else {
      os << " no_lr_drop";
    }
    os << "\n";
    os << "progress " << job.steps_done << " " << job.current.num_ps << " "
       << job.current.num_workers << " " << job.rescalings << "\n";
    os << "conv " << job.convergence.samples().size() << "\n";
    for (const LossSample& s : job.convergence.samples()) {
      os << s.step << " " << s.loss << "\n";
    }
    os << "speed " << job.speed.samples().size() << "\n";
    for (const SpeedSample& s : job.speed.samples()) {
      os << s.num_ps << " " << s.num_workers << " " << s.speed << "\n";
    }
    os << "end\n";
  }
  return os.str();
}

std::unique_ptr<OptimusController> OptimusController::RestoreState(
    const std::string& snapshot, ControllerOptions options) {
  std::istringstream is(snapshot);
  std::string header;
  std::string version;
  is >> header >> version;
  if (header != "optimus-controller-state" || version != "v1") {
    OPTIMUS_LOG(Error) << "unrecognized controller snapshot header";
    return nullptr;
  }

  auto controller = std::make_unique<OptimusController>(options);
  std::string token;
  while (is >> token) {
    if (token != "job") {
      OPTIMUS_LOG(Error) << "snapshot parse error: expected 'job', got " << token;
      return nullptr;
    }
    int id = 0;
    is >> id;

    JobSpec spec;
    spec.id = id;
    std::string model_name;
    std::string mode;
    is >> token;  // "spec"
    if (token != "spec") {
      return nullptr;
    }
    is >> model_name >> mode >> spec.convergence_delta >> spec.patience >>
        spec.global_batch >> spec.async_minibatch >> spec.arrival_time_s >>
        spec.dataset_scale >> spec.max_ps >> spec.max_workers;
    spec.model = &FindModel(model_name);
    spec.mode = mode == "sync" ? TrainingMode::kSync : TrainingMode::kAsync;
    spec.worker_demand = ReadResources(is);
    spec.ps_demand = ReadResources(is);
    is >> token;
    if (token == "lr_drop") {
      LearningRateDrop drop;
      is >> drop.epoch >> drop.c0 >> drop.c2;
      spec.lr_drop = drop;
    } else if (token != "no_lr_drop") {
      return nullptr;
    }

    ManagedJob job;
    job.spec = spec;
    job.speed = SpeedModel(spec.mode, spec.GlobalBatch());

    is >> token;  // "progress"
    if (token != "progress") {
      return nullptr;
    }
    is >> job.steps_done >> job.current.num_ps >> job.current.num_workers >>
        job.rescalings;

    is >> token;  // "conv"
    if (token != "conv") {
      return nullptr;
    }
    size_t n = 0;
    is >> n;
    for (size_t i = 0; i < n; ++i) {
      double step = 0.0;
      double loss = 0.0;
      is >> step >> loss;
      job.convergence.AddSample(step, loss);
    }
    job.convergence.Fit();

    is >> token;  // "speed"
    if (token != "speed") {
      return nullptr;
    }
    is >> n;
    for (size_t i = 0; i < n; ++i) {
      SpeedSample s;
      is >> s.num_ps >> s.num_workers >> s.speed;
      job.speed.AddSample(s);
    }
    job.speed.Fit();

    is >> token;  // "end"
    if (token != "end" || !is) {
      return nullptr;
    }
    controller->jobs_.emplace(id, std::move(job));
  }
  return controller;
}

}  // namespace optimus
