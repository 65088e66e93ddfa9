#include "src/sim/trace.h"

#include <cstring>
#include <ostream>

#include "src/common/logging.h"

namespace optimus {

void EventTrace::Reserve(size_t n) {
  if (!hash_only_) {
    records_.reserve(records_.size() + n);
  }
}

void EventTrace::Seal(const RawRecord& r, const std::string& text) {
  constexpr uint64_t kFnvPrime = 1099511628211ULL;
  const auto mix_byte = [this](uint8_t b) {
    digest_ = (digest_ ^ b) * kFnvPrime;
  };
  const auto mix = [&mix_byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  uint64_t time_bits = 0;
  std::memcpy(&time_bits, &r.time_s, sizeof(time_bits));
  mix(time_bits);
  mix(static_cast<uint64_t>(r.type));
  mix(static_cast<uint64_t>(static_cast<int64_t>(r.job_id)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(r.num_ps)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(r.num_workers)));
  mix(static_cast<uint64_t>(r.detail_kind));
  if (r.detail_kind == EventDetailKind::kString) {
    mix(static_cast<uint64_t>(text.size()));
    for (char c : text) {
      mix_byte(static_cast<uint8_t>(c));
    }
  } else if (r.detail_kind == EventDetailKind::kFactor) {
    uint64_t factor_bits = 0;
    std::memcpy(&factor_bits, &r.num_arg, sizeof(factor_bits));
    mix(factor_bits);
  } else {
    mix(static_cast<uint64_t>(r.int_arg));
  }
  ++recorded_;
  ++type_counts_[static_cast<size_t>(r.type)];
}

void EventTrace::Record(double time_s, SimEventType type, int job_id, int num_ps,
                        int num_workers, EventDetail detail) {
  OPTIMUS_CHECK(recorded_ == 0 || time_s >= last_time_s_ - 1e-9)
      << "events must be recorded in time order: new "
      << SimEventTypeName(type) << "@" << time_s << " job=" << job_id
      << " after " << SimEventTypeName(last_type_) << "@" << last_time_s_
      << " job=" << last_job_id_;
  last_time_s_ = time_s;
  last_type_ = type;
  last_job_id_ = job_id;
  RawRecord r{time_s, type, job_id, num_ps, num_workers, detail.kind};
  if (detail.kind == EventDetailKind::kFactor) {
    r.num_arg = detail.value;
  } else if (detail.kind == EventDetailKind::kEpochs ||
             detail.kind == EventDetailKind::kServer) {
    r.int_arg = static_cast<int64_t>(detail.value);
  }
  Seal(r, detail.text);
  if (hash_only_) {
    return;
  }
  if (detail.kind == EventDetailKind::kString) {
    r.int_arg = static_cast<int64_t>(strings_.size());
    strings_.push_back(std::move(detail.text));
  }
  records_.push_back(r);
}

void EventTrace::Materialize() const {
  for (; materialized_ < records_.size(); ++materialized_) {
    const RawRecord& r = records_[materialized_];
    SimEvent e{r.time_s, r.type, r.job_id, r.num_ps, r.num_workers, ""};
    switch (r.detail_kind) {
      case EventDetailKind::kNone:
        break;
      case EventDetailKind::kString:
        e.detail = strings_[static_cast<size_t>(r.int_arg)];
        break;
      case EventDetailKind::kEpochs:
        e.detail = "epochs=" + std::to_string(r.int_arg);
        break;
      case EventDetailKind::kServer:
        e.detail = "server=" + std::to_string(r.int_arg);
        break;
      case EventDetailKind::kFactor:
        e.detail = "factor=" + std::to_string(r.num_arg);
        break;
    }
    events_.push_back(std::move(e));
  }
}

const std::vector<SimEvent>& EventTrace::events() const {
  Materialize();
  return events_;
}

std::vector<SimEvent> EventTrace::ForJob(int job_id) const {
  Materialize();
  std::vector<SimEvent> out;
  for (const SimEvent& e : events_) {
    if (e.job_id == job_id) {
      out.push_back(e);
    }
  }
  return out;
}

std::map<SimEventType, int64_t> EventTrace::CountByType() const {
  std::map<SimEventType, int64_t> counts;
  for (size_t t = 0; t < type_counts_.size(); ++t) {
    if (type_counts_[t] > 0) {
      counts[static_cast<SimEventType>(t)] = type_counts_[t];
    }
  }
  return counts;
}

void EventTrace::WriteCsv(std::ostream& os) const {
  Materialize();
  os << "time_s,event,job,ps,workers,detail\n";
  for (const SimEvent& e : events_) {
    os << e.time_s << "," << SimEventTypeName(e.type) << "," << e.job_id << ","
       << e.num_ps << "," << e.num_workers << "," << e.detail << "\n";
  }
}

}  // namespace optimus
