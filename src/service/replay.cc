#include "src/service/replay.h"

#include <istream>
#include <ostream>
#include <string>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/models/model_zoo.h"

namespace optimus {

namespace {

// The synthetic op mix. The fractions are cumulative-checked in this order;
// the remainder becomes metrics_snapshot requests, the cheapest op.
constexpr double kWhatIfFraction = 0.30;
constexpr double kAdvanceFraction = 0.20;
constexpr double kSubmitKillFraction = 0.01;  // emits a submit AND its kill
constexpr double kAdvanceDtS = 30.0;
// Every kPromEvery-th metrics_snapshot asks for Prometheus format instead of
// the JSON report.
constexpr int kPromEvery = 4;

}  // namespace

ReplayResult RunReplay(ServiceSession* session, std::istream& in,
                       std::ostream& out, bool flush_each) {
  OPTIMUS_CHECK(session != nullptr);
  ReplayResult result;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();  // tolerate CRLF logs
    }
    // Skip framing noise so hand-edited logs stay valid; anything else goes
    // through the session verbatim (including malformed requests, which get
    // ok=false responses — replayed rejections are part of the byte contract).
    std::string::size_type first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    const int64_t errors_before = session->errors();
    bool shutdown = false;
    out << session->HandleLine(line, &shutdown) << "\n";
    if (flush_each) {
      out.flush();
    }
    ++result.requests;
    result.errors += session->errors() - errors_before;
    if (shutdown) {
      result.shutdown = true;
      break;
    }
  }
  if (session->audit_failed()) {
    result.exit_code = 3;
  }
  return result;
}

void GenerateSyntheticRequests(int64_t count, uint64_t seed, std::ostream& out) {
  Rng rng(seed);
  const std::vector<ModelSpec>& zoo = GetModelZoo();
  OPTIMUS_CHECK(!zoo.empty());
  // Submitted ids start high so they never collide with scenario job ids.
  int next_submit_id = 1000000;
  int64_t snapshots = 0;
  for (int64_t i = 0; i < count; ++i) {
    const double u = rng.Uniform(0.0, 1.0);
    double edge = kWhatIfFraction;
    if (u < edge) {
      const ModelSpec& model =
          zoo[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(zoo.size()) - 1))];
      out << "{\"op\":\"what_if\",\"model\":\"" << model.name << "\"}\n";
      continue;
    }
    edge += kAdvanceFraction;
    if (u < edge) {
      out << "{\"op\":\"advance\",\"dt_s\":" << kAdvanceDtS << "}\n";
      continue;
    }
    edge += kSubmitKillFraction;
    if (u < edge) {
      const ModelSpec& model =
          zoo[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(zoo.size()) - 1))];
      const int id = next_submit_id++;
      out << "{\"op\":\"submit\",\"model\":\"" << model.name
          << "\",\"job_id\":" << id << "}\n";
      out << "{\"op\":\"kill\",\"job_id\":" << id << "}\n";
      ++i;  // the pair counts as two requests
      continue;
    }
    ++snapshots;
    if (snapshots % kPromEvery == 0) {
      out << "{\"op\":\"metrics_snapshot\",\"format\":\"prom\"}\n";
    } else {
      out << "{\"op\":\"metrics_snapshot\"}\n";
    }
  }
}

}  // namespace optimus
