#include "src/sim/fault_injector.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/logging.h"

namespace optimus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Splits on any of the given separator characters, dropping empty pieces.
std::vector<std::string> SplitAny(const std::string& text, const std::string& seps) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (seps.find(c) != std::string::npos) {
      if (!current.empty()) {
        out.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    out.push_back(current);
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool ParseDouble(const std::string& text, double* out) {
  std::istringstream is(text);
  is >> *out;
  return !is.fail() && is.eof();
}

// Parses "k1=v1,k2=v2" into pairs; returns false on a piece without '='.
bool ParseParams(const std::string& text,
                 std::vector<std::pair<std::string, std::string>>* params) {
  for (const std::string& piece : SplitAny(text, ",")) {
    const size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    params->push_back({Trim(piece.substr(0, eq)), Trim(piece.substr(eq + 1))});
  }
  return true;
}

// Parses a whole server id in [0, INT_MAX]: digits only.
bool ParseServerId(const std::string& text, int* id) {
  const char* end = text.data() + text.size();
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return false;
  }
  const auto [ptr, ec] = std::from_chars(text.data(), end, *id);
  return ec == std::errc() && ptr == end;
}

// Parses "S" or "A-B" into a server range; on failure returns the problem,
// naming the bad value (the whole text when a side is empty).
std::string ParseServerRange(const std::string& text, ServerRange* range) {
  const size_t dash = text.find('-', 1);
  const std::string first = dash == std::string::npos ? text : text.substr(0, dash);
  const std::string last = dash == std::string::npos ? text : text.substr(dash + 1);
  auto bad_id = [&text](const std::string& id) {
    return "server id '" + (id.empty() ? text : id) + "' is not a whole number in [0, " +
           std::to_string(std::numeric_limits<int>::max()) + "]";
  };
  if (!ParseServerId(first, &range->first)) {
    return bad_id(first);
  }
  if (!ParseServerId(last, &range->last)) {
    return bad_id(last);
  }
  if (range->last < range->first) {
    return "server range '" + text + "' is empty";
  }
  return "";
}

bool ParseEvent(const std::string& event, FaultPlan* plan, std::string* error) {
  const size_t at = event.find('@');
  if (at == std::string::npos) {
    *error = "event '" + event + "' is missing '@time'";
    return false;
  }
  const std::string kind = Trim(event.substr(0, at));
  std::string rest = event.substr(at + 1);
  std::string params_text;
  if (const size_t colon = rest.find(':'); colon != std::string::npos) {
    params_text = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  double time_s = 0.0;
  if (!ParseDouble(Trim(rest), &time_s) || time_s < 0.0) {
    *error = "event '" + event + "' has a bad time";
    return false;
  }
  std::vector<std::pair<std::string, std::string>> params;
  if (!ParseParams(params_text, &params)) {
    *error = "event '" + event + "' has malformed params (expect k=v,...)";
    return false;
  }

  if (kind == "crash" || kind == "rack") {
    ServerOutage outage;
    outage.start_s = time_s;
    outage.recover_s = kInf;
    for (const auto& [k, v] : params) {
      if (k == "server" || k == "servers") {
        ServerRange range;
        if (const std::string problem = ParseServerRange(v, &range); !problem.empty()) {
          *error = "event '" + event + "': " + problem;
          return false;
        }
        outage.servers.push_back(range);
      } else if (k == "recover") {
        if (!ParseDouble(v, &outage.recover_s) || outage.recover_s <= time_s) {
          *error = "event '" + event + "': recover must be a time after the crash";
          return false;
        }
      } else {
        *error = "event '" + event + "': unknown param '" + k + "'";
        return false;
      }
    }
    if (outage.servers.empty()) {
      *error = "event '" + event + "' names no servers";
      return false;
    }
    plan->outages.push_back(std::move(outage));
    return true;
  }
  if (kind == "slow") {
    SlowdownBurst burst;
    burst.start_s = time_s;
    bool have_factor = false;
    bool have_duration = false;
    for (const auto& [k, v] : params) {
      if (k == "factor") {
        if (!ParseDouble(v, &burst.factor) || burst.factor <= 0.0 ||
            burst.factor > 1.0) {
          *error = "event '" + event + "': factor must be in (0, 1]";
          return false;
        }
        have_factor = true;
      } else if (k == "duration") {
        double d = 0.0;
        if (!ParseDouble(v, &d) || d <= 0.0) {
          *error = "event '" + event + "': duration must be positive";
          return false;
        }
        burst.end_s = time_s + d;
        if (!(burst.end_s > time_s)) {
          *error = "event '" + event + "': duration '" + v + "' is lost in the start time";
          return false;
        }
        have_duration = true;
      } else {
        *error = "event '" + event + "': unknown param '" + k + "'";
        return false;
      }
    }
    if (!have_factor || !have_duration) {
      *error = "event '" + event + "': slow needs factor=F and duration=D";
      return false;
    }
    plan->slowdowns.push_back(burst);
    return true;
  }
  *error = "event '" + event + "': unknown kind '" + kind + "' (expected crash|rack|slow)";
  return false;
}

}  // namespace

bool ParseFaultPlan(const std::string& spec, FaultPlan* plan, std::string* error) {
  OPTIMUS_CHECK(plan != nullptr);
  OPTIMUS_CHECK(error != nullptr);
  error->clear();
  std::string text = Trim(spec);
  if (!text.empty() && text[0] == '@') {
    const std::string path = text.substr(1);
    std::ifstream in(path);
    if (!in.good()) {
      *error = "cannot read fault plan file '" + path + "'";
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  for (std::string line : SplitAny(text, "\n;")) {
    if (const size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    if (!ParseEvent(line, plan, error)) {
      return false;
    }
  }
  return true;
}

FaultInjector::FaultInjector(const FaultConfig& config, int num_servers)
    : config_(config), down_count_(static_cast<size_t>(num_servers), 0) {
  for (const ServerOutage& outage : config_.plan.outages) {
    for (const ServerRange& range : outage.servers) {
      // Ids past the cluster are skipped: the plan was written for a larger
      // one.
      for (int s = std::max(range.first, 0); s <= std::min(range.last, num_servers - 1);
           ++s) {
        transitions_.push_back({outage.start_s, s, +1});
        if (std::isfinite(outage.recover_s)) {
          transitions_.push_back({outage.recover_s, s, -1});
        }
      }
    }
  }
  std::stable_sort(transitions_.begin(), transitions_.end(),
                   [](const Transition& a, const Transition& b) {
                     if (a.time_s != b.time_s) {
                       return a.time_s < b.time_s;
                     }
                     if (a.server != b.server) {
                       return a.server < b.server;
                     }
                     return a.delta < b.delta;  // recoveries before crashes
                   });
}

FaultInjector::IntervalFaults FaultInjector::Advance(double now_s) {
  IntervalFaults out;
  // Snapshot up/down before applying this span's transitions, then report
  // only the net change per server — a server that flaps within one skipped
  // span produces no visible transition.
  std::vector<int> touched;
  std::vector<char> was_down(down_count_.size(), 0);
  for (size_t s = 0; s < down_count_.size(); ++s) {
    was_down[s] = down_count_[s] > 0 ? 1 : 0;
  }
  while (cursor_ < transitions_.size() && transitions_[cursor_].time_s <= now_s) {
    const Transition& t = transitions_[cursor_++];
    down_count_[t.server] += t.delta;
    OPTIMUS_CHECK_GE(down_count_[t.server], 0);
    touched.push_back(t.server);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (int s : touched) {
    const bool down = down_count_[s] > 0;
    if (down && !was_down[s]) {
      out.crashed.push_back(s);
    } else if (!down && was_down[s]) {
      out.recovered.push_back(s);
    }
  }

  for (const SlowdownBurst& burst : config_.plan.slowdowns) {
    if (burst.start_s <= now_s && now_s < burst.end_s) {
      out.slow_factor *= burst.factor;
    }
  }
  return out;
}

bool FaultInjector::server_up(int server) const {
  if (server < 0 || server >= static_cast<int>(down_count_.size())) {
    return false;
  }
  return down_count_[static_cast<size_t>(server)] == 0;
}

int FaultInjector::servers_down() const {
  int n = 0;
  for (int c : down_count_) {
    n += c > 0 ? 1 : 0;
  }
  return n;
}

double FaultInjector::JobFailureProbability(int num_tasks) const {
  if (config_.task_failure_prob <= 0.0 || num_tasks <= 0) {
    return 0.0;
  }
  const double p = std::clamp(config_.task_failure_prob, 0.0, 1.0);
  return 1.0 - std::pow(1.0 - p, static_cast<double>(num_tasks));
}

}  // namespace optimus
