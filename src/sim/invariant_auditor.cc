#include "src/sim/invariant_auditor.h"

#include <sstream>

#include "src/common/logging.h"

namespace optimus {

namespace {

// Slack for floating-point accumulation of placed demands.
constexpr double kEps = 1e-6;

}  // namespace

void InvariantAuditor::NoteRollback(int job_id) { rollback_ok_.insert(job_id); }

void InvariantAuditor::NoteRetired(int job_id) {
  last_steps_.erase(job_id);
  rollback_ok_.erase(job_id);
}

void InvariantAuditor::Report(double now_s, const char* invariant,
                              std::string detail) {
  if (flight_ != nullptr) {
    flight_->Record(now_s, SimEventType::kAuditViolation, kClusterEventJobId, 0,
                    0, 0.0, std::string(invariant) + ": " + detail);
  }
  violations_.push_back({now_s, invariant, std::move(detail)});
}

InvariantAuditor::Census InvariantAuditor::CheckJobScalars(
    double now_s, const std::vector<JobView>& jobs) {
  Census census;
  for (const JobView& job : jobs) {
    switch (job.state) {
      case JobState::kRunning:
        ++census.running;
        break;
      case JobState::kPaused:
        ++census.paused;
        break;
      case JobState::kPending:
        ++census.pending;
        break;
      case JobState::kCompleted:
        ++census.completed;
        break;
    }

    // State sanity: non-negative counts and progress; non-running jobs hold
    // no allocation; running jobs hold an active one.
    if (job.num_ps < 0 || job.num_workers < 0 || job.steps_done < 0.0) {
      std::ostringstream os;
      os << "job " << job.job_id << ": negative ps/workers/steps (" << job.num_ps
         << ", " << job.num_workers << ", " << job.steps_done << ")";
      Report(now_s, "state", os.str());
    }
    if (job.state == JobState::kRunning &&
        ((job.comm != CommMode::kAllReduce && job.num_ps <= 0) ||
         job.num_workers <= 0)) {
      std::ostringstream os;
      os << "job " << job.job_id << " is running with allocation (" << job.num_ps
         << ", " << job.num_workers << ")";
      Report(now_s, "state", os.str());
    }
    if ((job.state == JobState::kPaused || job.state == JobState::kPending) &&
        (job.num_ps != 0 || job.num_workers != 0)) {
      std::ostringstream os;
      os << "job " << job.job_id << " is " << JobStateName(job.state)
         << " but holds allocation (" << job.num_ps << ", " << job.num_workers
         << ")";
      Report(now_s, "state", os.str());
    }

    // Progress monotonicity (modulo announced rollbacks).
    if (const auto it = last_steps_.find(job.job_id); it != last_steps_.end()) {
      if (job.steps_done < it->second - kEps &&
          rollback_ok_.find(job.job_id) == rollback_ok_.end()) {
        std::ostringstream os;
        os << "job " << job.job_id << " progress went backwards without a "
           << "rollback: " << it->second << " -> " << job.steps_done << " steps";
        Report(now_s, "progress", os.str());
      }
    }
    last_steps_[job.job_id] = job.steps_done;
  }
  return census;
}

void InvariantAuditor::CheckAccounting(double now_s, const Census& census,
                                       const Counts& counts) {
  // Accounting identity over submitted jobs. Retired jobs (streaming
  // admission freed their runtime records after completion) are absent from
  // the views, so they enter both identities through the counts.
  if (census.running + census.paused + census.pending + census.completed +
          counts.retired !=
      counts.submitted) {
    std::ostringstream os;
    os << "job census " << census.running << "+" << census.paused << "+"
       << census.pending << "+" << census.completed << "+" << counts.retired
       << " retired != " << counts.submitted << " submitted";
    Report(now_s, "accounting", os.str());
  }
  if (census.completed + counts.retired != counts.completed_metric) {
    std::ostringstream os;
    os << "metrics report " << counts.completed_metric << " completed, census "
       << "says " << census.completed << " + " << counts.retired << " retired";
    Report(now_s, "accounting", os.str());
  }
}

void InvariantAuditor::Check(double now_s, const std::vector<Server>& servers,
                             const std::vector<JobView>& jobs,
                             const Counts& counts) {
  ++checks_run_;
  const size_t n_servers = servers.size();
  std::vector<Resources> placed_load(n_servers);
  std::vector<int> placed_tasks(n_servers, 0);

  const Census census = CheckJobScalars(now_s, jobs);
  for (const JobView& job : jobs) {
    // Accumulate per-server load from the placement of running jobs (only
    // running jobs hold cluster resources between intervals).
    if (job.state != JobState::kRunning || job.placement == nullptr ||
        job.placement->empty()) {
      continue;
    }
    const JobPlacement& placement = *job.placement;
    if (placement.used_workers.size() != placement.used_servers.size() ||
        placement.used_ps.size() != placement.used_servers.size()) {
      std::ostringstream os;
      os << "job " << job.job_id << " placement sized "
         << placement.used_servers.size() << "/" << placement.used_workers.size()
         << "/" << placement.used_ps.size() << " (servers/workers/ps)";
      Report(now_s, "capacity", os.str());
      continue;
    }
    int placed_w = 0;
    int placed_p = 0;
    placement.ForEachUsed([&](size_t s, int w, int p) {
      if (s >= n_servers) {
        std::ostringstream os;
        os << "job " << job.job_id << " places tasks on server " << s
           << " outside the " << n_servers << "-server cluster";
        Report(now_s, "capacity", os.str());
        return;
      }
      if (w < 0 || p < 0) {
        std::ostringstream os;
        os << "job " << job.job_id << " has negative task count on server " << s;
        Report(now_s, "capacity", os.str());
        return;
      }
      placed_w += w;
      placed_p += p;
      placed_load[s] += job.worker_demand * w + job.ps_demand * p;
      placed_tasks[s] += w + p;
      if ((w > 0 || p > 0) && !servers[s].available()) {
        std::ostringstream os;
        os << "job " << job.job_id << " has " << w << " worker(s) and " << p
           << " ps on dead server " << servers[s].id();
        Report(now_s, "dead-server", os.str());
      }
    });
    if (placed_w != job.num_workers || placed_p != job.num_ps) {
      std::ostringstream os;
      os << "job " << job.job_id << " placement totals (" << placed_p << ", "
         << placed_w << ") != allocation (" << job.num_ps << ", "
         << job.num_workers << ")";
      Report(now_s, "capacity", os.str());
    }
  }

  // Capacity conservation: the sum of placed demands on each server must fit
  // within its physical capacity (equivalently, free stays non-negative).
  for (size_t s = 0; s < n_servers; ++s) {
    if (placed_tasks[s] == 0) {
      continue;
    }
    if (!servers[s].capacity().Fits(placed_load[s])) {
      std::ostringstream os;
      os << "server " << servers[s].id() << " overcommitted: placed "
         << placed_load[s].ToString() << " on capacity "
         << servers[s].capacity().ToString();
      Report(now_s, "capacity", os.str());
    }
  }

  CheckAccounting(now_s, census, counts);

  rollback_ok_.clear();
}

void InvariantAuditor::SetClusterSize(size_t n_servers) {
  server_load_.resize(n_servers);
}

void InvariantAuditor::SetPlacement(int job_id, const Resources& worker_demand,
                                    const Resources& ps_demand,
                                    const JobPlacement& placement) {
  ClearPlacement(job_id);
  if (placement.empty()) {
    return;
  }
  TrackedJob tracked;
  tracked.worker_demand = worker_demand;
  tracked.ps_demand = ps_demand;
  placement.ForEachUsed([&](size_t s, int w, int p) {
    tracked.tasks.push_back({static_cast<int>(s), w, p});
    tracked.num_workers += w;
    tracked.num_ps += p;
    OPTIMUS_CHECK_LT(s, server_load_.size())
        << "SetClusterSize was not called (or placement outgrew the cluster)";
    ServerLoad& load = server_load_[s];
    load.jobs[job_id] = {w, p};
    occupied_.insert(static_cast<int>(s));
    MarkDirty(static_cast<int>(s));
  });
  tracked_[job_id] = std::move(tracked);
}

void InvariantAuditor::ClearPlacement(int job_id) {
  const auto it = tracked_.find(job_id);
  if (it == tracked_.end()) {
    return;
  }
  for (const TrackedTask& task : it->second.tasks) {
    ServerLoad& load = server_load_[static_cast<size_t>(task.server)];
    load.jobs.erase(job_id);
    if (load.jobs.empty()) {
      occupied_.erase(task.server);
    }
    MarkDirty(task.server);
  }
  tracked_.erase(it);
}

Resources InvariantAuditor::DeriveServerLoad(size_t s) const {
  Resources load;
  for (const auto& [job_id, wp] : server_load_[s].jobs) {
    const auto it = tracked_.find(job_id);
    OPTIMUS_CHECK(it != tracked_.end());
    load += it->second.worker_demand * wp.first + it->second.ps_demand * wp.second;
  }
  return load;
}

void InvariantAuditor::CheckIncremental(double now_s,
                                        const std::vector<Server>& servers,
                                        const std::vector<JobView>& jobs,
                                        const Counts& counts) {
  ++checks_run_;
  const Census census = CheckJobScalars(now_s, jobs);

  // Per-job placement totals vs. allocation, via the tracker (O(1) per job).
  for (const JobView& job : jobs) {
    if (job.state != JobState::kRunning || job.placement == nullptr ||
        job.placement->empty()) {
      continue;
    }
    const auto it = tracked_.find(job.job_id);
    if (it == tracked_.end()) {
      std::ostringstream os;
      os << "running job " << job.job_id << " has a placement but no tracked "
         << "contribution";
      Report(now_s, "capacity", os.str());
      continue;
    }
    if (it->second.num_workers != job.num_workers ||
        it->second.num_ps != job.num_ps) {
      std::ostringstream os;
      os << "job " << job.job_id << " placement totals (" << it->second.num_ps
         << ", " << it->second.num_workers << ") != allocation (" << job.num_ps
         << ", " << job.num_workers << ")";
      Report(now_s, "capacity", os.str());
    }
  }

  // Dead-server: any occupied server must be available.
  for (const int s : occupied_) {
    if (servers[static_cast<size_t>(s)].available()) {
      continue;
    }
    for (const auto& [job_id, wp] : server_load_[static_cast<size_t>(s)].jobs) {
      std::ostringstream os;
      os << "job " << job_id << " has " << wp.first << " worker(s) and "
         << wp.second << " ps on dead server "
         << servers[static_cast<size_t>(s)].id();
      Report(now_s, "dead-server", os.str());
    }
  }

  // Capacity conservation on servers whose occupancy changed since the last
  // check — unchanged servers were already verified and cannot have regressed.
  for (const int s : dirty_servers_) {
    const size_t idx = static_cast<size_t>(s);
    if (server_load_[idx].jobs.empty()) {
      continue;
    }
    const Resources load = DeriveServerLoad(idx);
    if (!servers[idx].capacity().Fits(load)) {
      std::ostringstream os;
      os << "server " << servers[idx].id() << " overcommitted: placed "
         << load.ToString() << " on capacity " << servers[idx].capacity().ToString();
      Report(now_s, "capacity", os.str());
    }
  }
  dirty_servers_.clear();

  CheckAccounting(now_s, census, counts);

  rollback_ok_.clear();
}

void InvariantAuditor::CheckTrackerAgainstViews(double now_s,
                                                const std::vector<JobView>& jobs) {
  size_t tracked_seen = 0;
  for (const JobView& job : jobs) {
    const bool should_track = job.state == JobState::kRunning &&
                              job.placement != nullptr && !job.placement->empty();
    const auto it = tracked_.find(job.job_id);
    if (!should_track) {
      if (it != tracked_.end()) {
        std::ostringstream os;
        os << "tracker holds a placement for job " << job.job_id
           << " which is not running";
        Report(now_s, "audit-divergence", os.str());
        ++tracked_seen;
      }
      continue;
    }
    if (it == tracked_.end()) {
      std::ostringstream os;
      os << "tracker is missing running job " << job.job_id;
      Report(now_s, "audit-divergence", os.str());
      continue;
    }
    ++tracked_seen;
    const TrackedJob& tracked = it->second;
    // Re-derive the expected contribution from the view and compare.
    std::vector<TrackedTask> expected;
    job.placement->ForEachUsed([&](size_t s, int w, int p) {
      expected.push_back({static_cast<int>(s), w, p});
    });
    bool same = expected.size() == tracked.tasks.size() &&
                tracked.worker_demand == job.worker_demand &&
                tracked.ps_demand == job.ps_demand;
    for (size_t i = 0; same && i < expected.size(); ++i) {
      same = expected[i].server == tracked.tasks[i].server &&
             expected[i].workers == tracked.tasks[i].workers &&
             expected[i].ps == tracked.tasks[i].ps;
    }
    if (!same) {
      std::ostringstream os;
      os << "tracker diverges from the true placement of job " << job.job_id;
      Report(now_s, "audit-divergence", os.str());
    }
  }
  if (tracked_seen != tracked_.size()) {
    std::ostringstream os;
    os << "tracker holds " << tracked_.size() << " job(s), views cover "
       << tracked_seen;
    Report(now_s, "audit-divergence", os.str());
  }
}

std::string InvariantAuditor::Summary(size_t max_items) const {
  std::ostringstream os;
  os << violations_.size() << " violation(s)";
  const size_t n = std::min(max_items, violations_.size());
  for (size_t i = 0; i < n; ++i) {
    const AuditViolation& v = violations_[i];
    os << "; [t=" << v.time_s << " " << v.invariant << "] " << v.detail;
  }
  if (violations_.size() > n) {
    os << "; ...";
  }
  return os.str();
}

}  // namespace optimus
