#include "src/sim/job_table.h"

#include <limits>

#include "src/common/logging.h"
#include "src/sim/invariant_auditor.h"

namespace optimus {

JobSnapshot SnapshotOf(const Job& job, bool killed) {
  JobSnapshot s;
  s.id = job.id();
  s.state = job.state();
  s.killed = killed;
  s.num_ps = job.num_ps();
  s.num_workers = job.num_workers();
  s.num_scalings = job.num_scalings();
  s.arrival_time_s = job.spec().arrival_time_s;
  s.completion_time_s = job.completion_time_s();
  s.jct_s = job.state() == JobState::kCompleted ? job.Jct() : 0.0;
  s.steps_done = job.steps_done();
  s.epochs_done = job.EpochsDone();
  s.checkpoint_steps = job.checkpoint_steps();
  s.last_epoch_loss = job.epoch_losses().empty() ? 0.0 : job.epoch_losses().back();
  s.total_stall_s = job.total_stall_s();
  return s;
}

JobTable::JobTable(std::vector<JobSpec> specs) : pending_specs_(std::move(specs)) {
  // The cursor serves the input's arrival-sorted prefix (all of a generated
  // trace); every spec from the first one out of order on waits in the heap.
  while (pending_sorted_end_ < pending_specs_.size() &&
         (pending_sorted_end_ == 0 ||
          pending_specs_[pending_sorted_end_].arrival_time_s >=
              pending_specs_[pending_sorted_end_ - 1].arrival_time_s)) {
    ++pending_sorted_end_;
  }
  for (size_t key = pending_sorted_end_; key < pending_specs_.size(); ++key) {
    pending_heap_.push({pending_specs_[key].arrival_time_s, key});
  }
}

bool JobTable::Submit(const JobSpec& spec) {
  if (Find(spec.id) != nullptr) {
    return false;
  }
  const size_t key = pending_specs_.size();
  pending_specs_.push_back(spec);
  pending_heap_.push({spec.arrival_time_s, key});
  AddRef(spec.id, key);
  return true;
}

std::optional<size_t> JobTable::PendingHead() {
  while (pending_next_ < pending_sorted_end_ &&
         pending_specs_[pending_next_].model == nullptr) {
    ++pending_next_;
  }
  while (!pending_heap_.empty() &&
         pending_specs_[pending_heap_.top().second].model == nullptr) {
    pending_heap_.pop();
  }
  std::optional<size_t> head;
  if (pending_next_ < pending_sorted_end_) {
    head = pending_next_;
  }
  if (!pending_heap_.empty() &&
      (!head || pending_heap_.top() < std::pair(pending_specs_[*head].arrival_time_s, *head))) {
    head = pending_heap_.top().second;
  }
  return head;
}

double JobTable::NextArrival() {
  const std::optional<size_t> key = PendingHead();
  return key ? pending_specs_[*key].arrival_time_s : std::numeric_limits<double>::infinity();
}

JobSpec JobTable::Take(size_t key) {
  JobSpec spec = std::move(pending_specs_[key]);
  pending_specs_[key] = JobSpec{};  // consumed: releases the slot's heap state
  return spec;
}

JobRuntime* JobTable::Insert(std::unique_ptr<JobRuntime> runtime) {
  const size_t key = runtime->key;
  AddRef(runtime->job.id(), key).live = runtime.get();
  // Arrivals come in order-key order unless the input was unsorted or a
  // submission arrives before a later input spec.
  auto at = live_.end();
  if (!live_.empty() && live_.back()->key > key) {
    at = std::upper_bound(live_.begin(), live_.end(), key,
                          [](size_t k, const auto& other) { return k < other->key; });
  }
  return live_.insert(at, std::move(runtime))->get();
}

void JobTable::RetireCompleted(InvariantAuditor* auditor) {
  visits_ += static_cast<int64_t>(live_.size());
  size_t kept = 0;
  for (size_t i = 0; i < live_.size(); ++i) {
    JobRuntime* jr = live_[i].get();
    if (jr->job.state() != JobState::kCompleted) {
      if (kept != i) {
        live_[kept] = std::move(live_[i]);
      }
      ++kept;
      continue;
    }
    JobRef& ref = job_refs_.at(jr->job.id());
    ref.live = nullptr;
    ref.retired = retired_.size();
    retired_.push_back({jr->key, SnapshotOf(jr->job, jr->killed)});
    if (jr->conv != nullptr) {
      retired_conv_stats_ += jr->conv->fit_stats();
    }
    if (jr->speed != nullptr) {
      retired_speed_stats_ += jr->speed->fit_stats();
    }
    auditor->NoteRetired(jr->job.id());
    live_[i].reset();
  }
  live_.resize(kept);
}

const JobTable::JobRef* JobTable::Find(int id) const {
  IndexPending();
  const auto it = job_refs_.find(id);
  return it == job_refs_.end() ? nullptr : &it->second;
}

JobSnapshot JobTable::Snapshot(int id) const {
  const JobRef* ref = Find(id);
  OPTIMUS_CHECK(ref != nullptr) << "unknown job id " << id;
  if (ref->live != nullptr) {
    return SnapshotOf(ref->live->job, ref->live->killed);
  }
  if (ref->retired) {
    return retired_[*ref->retired].snapshot;
  }
  JobSnapshot s;
  s.id = id;
  s.arrival_time_s = pending_specs_[ref->key].arrival_time_s;
  return s;
}

const JobTable::Totals& JobTable::totals() const {
  if (!totals_stale_) {
    return totals_;
  }
  // Integer sums, so the order matters only for consistency, not value.
  Totals t;
  t.conv = retired_conv_stats_;
  t.speed = retired_speed_stats_;
  for (const auto& jr : Live()) {
    if (jr->conv != nullptr) {
      t.conv += jr->conv->fit_stats();
    }
    if (jr->speed != nullptr) {
      t.speed += jr->speed->fit_stats();
    }
  }
  totals_ = t;
  totals_stale_ = false;
  return totals_;
}

JobTable::JobRef& JobTable::AddRef(int id, size_t key) const {
  const auto [ref, inserted] = job_refs_.try_emplace(id, JobRef{key, nullptr, std::nullopt});
  OPTIMUS_CHECK(inserted || ref->second.key == key) << "duplicate job id " << id;
  return ref->second;
}

void JobTable::IndexPending() const {
  if (pending_indexed_) {
    return;
  }
  pending_indexed_ = true;
  for (size_t key = 0; key < pending_specs_.size(); ++key) {
    if (pending_specs_[key].model != nullptr) {
      AddRef(pending_specs_[key].id, key);
    }
  }
}

}  // namespace optimus
