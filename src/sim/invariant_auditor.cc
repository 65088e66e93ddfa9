#include "src/sim/invariant_auditor.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "src/common/logging.h"

namespace optimus {

namespace {

// Slack for floating-point accumulation of placed demands.
constexpr double kEps = 1e-6;

// First entry of a server's job-id-sorted list whose job id is >= `job_id`.
template <typename Entries>
auto EntryAtOrAfter(Entries& entries, int job_id) {
  return std::lower_bound(entries.begin(), entries.end(), job_id,
                          [](const auto& e, int id) { return e.job_id < id; });
}

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
    const auto [it, first_seen] = last_steps_.try_emplace(job.job_id, job.steps_done);
    if (!first_seen) {
      if (job.steps_done < it->second - kEps &&
          rollback_ok_.find(job.job_id) == rollback_ok_.end()) {
        std::ostringstream os;
        os << "job " << job.job_id << " progress went backwards without a "
           << "rollback: " << it->second << " -> " << job.steps_done << " steps";
        Report(now_s, "progress", os.str());
      }
      it->second = job.steps_done;
    }
  }
  return census;
}

void InvariantAuditor::CheckAccounting(double now_s, const Census& census,
                                       const Counts& counts) {
  // Accounting identity over submitted jobs. Retired jobs (their runtime
  // records were freed after completion) are absent from the views, so they enter both identities through the counts.
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
  server_jobs_.resize(n_servers);
  occupied_.resize((n_servers + 63) / 64, 0);
  dirty_.resize(n_servers, 0);
}

void InvariantAuditor::SetOccupied(size_t server, bool occupied) {
  const uint64_t bit = uint64_t{1} << (server % 64);
  if (occupied) {
    occupied_[server / 64] |= bit;
  } else {
    occupied_[server / 64] &= ~bit;
  }
}

void InvariantAuditor::MarkDirty(int server) {
  uint8_t& flag = dirty_[static_cast<size_t>(server)];
  if (flag == 0) {
    flag = 1;
    dirty_list_.push_back(server);
  }
}

void InvariantAuditor::RemoveFromServers(int job_id, const TrackedJob& tracked) {
  for (const TrackedTask& task : tracked.tasks) {
    std::vector<ServerEntry>& entries = server_jobs_[static_cast<size_t>(task.server)];
    const auto it = EntryAtOrAfter(entries, job_id);
    if (it != entries.end() && it->job_id == job_id) {
      entries.erase(it);
      if (entries.empty()) {
        SetOccupied(static_cast<size_t>(task.server), false);
      }
    }
    MarkDirty(task.server);
  }
}

void InvariantAuditor::SetPlacement(int job_id, const Resources& worker_demand,
                                    const Resources& ps_demand,
                                    const JobPlacement& placement) {
  if (placement.empty()) {
    ClearPlacement(job_id);
    return;
  }
  const auto [it, added] = tracked_.try_emplace(job_id);
  TrackedJob& tracked = it->second;
  if (!added) {
    RemoveFromServers(job_id, tracked);
  }
  tracked.tasks.clear();
  tracked.worker_demand = worker_demand;
  tracked.ps_demand = ps_demand;
  tracked.num_workers = 0;
  tracked.num_ps = 0;
  placement.ForEachUsed([&](size_t s, int w, int p) {
    tracked.tasks.push_back({static_cast<int>(s), w, p});
    tracked.num_workers += w;
    tracked.num_ps += p;
    OPTIMUS_CHECK_LT(s, server_jobs_.size())
        << "SetClusterSize was not called (or placement outgrew the cluster)";
    std::vector<ServerEntry>& entries = server_jobs_[s];
    const auto pos = EntryAtOrAfter(entries, job_id);
    if (pos != entries.end() && pos->job_id == job_id) {
      *pos = {job_id, w, p};
    } else {
      entries.insert(pos, {job_id, w, p});
    }
    SetOccupied(s, true);
    MarkDirty(static_cast<int>(s));
  });
}

void InvariantAuditor::ClearPlacement(int job_id) {
  const auto it = tracked_.find(job_id);
  if (it == tracked_.end()) {
    return;
  }
  RemoveFromServers(job_id, it->second);
  tracked_.erase(it);
}

Resources InvariantAuditor::DeriveServerLoad(size_t s) const {
  Resources load;
  for (const ServerEntry& entry : server_jobs_[s]) {
    const auto it = tracked_.find(entry.job_id);
    OPTIMUS_CHECK(it != tracked_.end());
    load += it->second.worker_demand * entry.workers + it->second.ps_demand * entry.ps;
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
  for (size_t word = 0; word < occupied_.size(); ++word) {
    for (uint64_t bits = occupied_[word]; bits != 0; bits &= bits - 1) {
      const size_t s = word * 64 + static_cast<size_t>(std::countr_zero(bits));
      if (servers[s].available()) {
        continue;
      }
      for (const ServerEntry& entry : server_jobs_[s]) {
        std::ostringstream os;
        os << "job " << entry.job_id << " has " << entry.workers << " worker(s) and "
           << entry.ps << " ps on dead server " << servers[s].id();
        Report(now_s, "dead-server", os.str());
      }
    }
  }

  // Capacity conservation on servers whose occupancy changed since the last
  // check — unchanged servers were already verified and cannot have regressed.
  std::sort(dirty_list_.begin(), dirty_list_.end());
  for (const int s : dirty_list_) {
    const size_t idx = static_cast<size_t>(s);
    dirty_[idx] = 0;
    if (server_jobs_[idx].empty()) {
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
  dirty_list_.clear();

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
    // Compare the view's placement with the tracked contribution in place.
    const TrackedJob& tracked = it->second;
    bool same = tracked.worker_demand == job.worker_demand &&
                tracked.ps_demand == job.ps_demand;
    size_t t = 0;
    job.placement->ForEachUsed([&](size_t s, int w, int p) {
      same = same && t < tracked.tasks.size() &&
             tracked.tasks[t].server == static_cast<int>(s) &&
             tracked.tasks[t].workers == w && tracked.tasks[t].ps == p;
      ++t;
    });
    same = same && t == tracked.tasks.size();
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
