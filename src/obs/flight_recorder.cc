#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <ostream>

#include "src/obs/text_format.h"

namespace optimus {

using obs_internal::AppendInt;

FlightRecorder::FlightRecorder(int depth)
    : capacity_(depth > 0 ? static_cast<size_t>(depth) : 0) {
  if (capacity_ > 0) {
    ring_.reserve(capacity_);
  }
}

size_t FlightRecorder::size() const {
  return std::min<uint64_t>(next_seq_, capacity_);
}

void FlightRecorder::Record(double time_s, SimEventType kind, int job_id,
                            int num_ps, int num_workers, double value,
                            std::string detail) {
  if (capacity_ == 0) {
    return;
  }
  FlightEvent e;
  e.seq = next_seq_++;
  e.time_s = time_s;
  e.kind = kind;
  e.job_id = job_id;
  e.num_ps = num_ps;
  e.num_workers = num_workers;
  e.value = value;
  e.detail = std::move(detail);
  const size_t slot = static_cast<size_t>(e.seq % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = std::move(e);
  } else {
    ring_.push_back(std::move(e));
  }
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> out;
  const size_t n = size();
  out.reserve(n);
  const uint64_t first = next_seq_ - n;  // oldest retained sequence number
  for (uint64_t s = first; s < next_seq_; ++s) {
    out.push_back(ring_[static_cast<size_t>(s % capacity_)]);
  }
  return out;
}

void FlightRecorder::Dump(std::ostream& os) const {
  os << "flight recorder: " << size() << " of " << total_recorded()
     << " event(s) retained (depth " << capacity_ << ")\n";
  for (const FlightEvent& e : Events()) {
    os << "  [" << e.seq << "] t=" << obs_internal::FormatDouble17(e.time_s)
       << " " << SimEventTypeName(e.kind) << " job=" << e.job_id;
    if (e.num_ps != 0 || e.num_workers != 0) {
      os << " ps=" << e.num_ps << " workers=" << e.num_workers;
    }
    if (e.value != 0.0) {
      os << " value=" << obs_internal::FormatDouble17(e.value);
    }
    if (!e.detail.empty()) {
      os << " " << e.detail;
    }
    os << "\n";
  }
}

namespace {

// One event as a JSON object, the array's element text without its indent.
void EncodeEvent(const FlightEvent& e, std::string* out) {
  *out += "{\"seq\": ";
  AppendInt(e.seq, out);
  *out += ", \"time_s\": ";
  AppendDouble17(e.time_s, out);
  *out += ", \"kind\": \"";
  *out += SimEventTypeName(e.kind);
  *out += "\", \"job\": ";
  AppendInt(e.job_id, out);
  *out += ", \"ps\": ";
  AppendInt(e.num_ps, out);
  *out += ", \"workers\": ";
  AppendInt(e.num_workers, out);
  *out += ", \"value\": ";
  AppendDouble17(e.value, out);
  *out += ", \"detail\": ";
  AppendJsonString(e.detail, out);
  *out += '}';
}

}  // namespace

void FlightRecorder::AppendJson(std::string* out, int indent) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const uint64_t first = next_seq_ - size();  // oldest retained sequence number
  encoded_.resize(ring_.size());
  *out += '[';
  for (uint64_t s = first; s < next_seq_; ++s) {
    const size_t index = static_cast<size_t>(s % capacity_);
    EncodedEvent& slot = encoded_[index];
    if (slot.seq != s) {
      slot.seq = s;
      slot.json.clear();
      EncodeEvent(ring_[index], &slot.json);
    }
    *out += s == first ? "\n" : ",\n";
    *out += pad;
    *out += "  ";
    *out += slot.json;
  }
  if (first < next_seq_) {
    *out += '\n';
    *out += pad;
  }
  *out += ']';
}

void FlightRecorder::WriteJson(std::ostream& os, int indent) const {
  std::string out;
  AppendJson(&out, indent);
  os << out;
}

}  // namespace optimus
