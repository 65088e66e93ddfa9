// The service protocol under hostile input: the committed request logs
// (tests/golden/serve/*.requests.ndjson) with their lines mutated — numeric
// extremes, wrong types, swapped, dropped or doubled keys, unknown ops — fed
// through ServiceSession::HandleLine. No request may abort the session, and
// every response is ok:true or carries a "<request>:L:C: " positioned error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/service/session.h"

#ifndef OPTIMUS_SOURCE_DIR
#error "OPTIMUS_SOURCE_DIR must be defined to locate the golden files"
#endif

namespace optimus {
namespace {

constexpr char kGoldenDir[] = OPTIMUS_SOURCE_DIR "/tests/golden/serve";

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Every request line of every committed log, logs in name order; comments
// and blank lines are the replay harness's to skip, not requests.
std::vector<std::vector<std::string>> RequestLogs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir)) {
    if (entry.path().filename().string().ends_with(".requests.ndjson")) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::vector<std::string>> logs;
  for (const std::filesystem::path& path : paths) {
    std::istringstream in(ReadFile(path));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') {
        lines.push_back(line);
      }
    }
    logs.push_back(std::move(lines));
  }
  return logs;
}

// The "key": value pairs of a flat request object, as (begin, end) spans of
// the whole pair and of its value.
struct Pair {
  size_t begin, end, value_begin;
};

std::vector<Pair> Pairs(const std::string& line) {
  static const std::regex kPair(R"re(("[A-Za-z_0-9]*")\s*:\s*("(?:[^"\\]|\\.)*"|[^,}]+))re");
  std::vector<Pair> pairs;
  for (auto it = std::sregex_iterator(line.begin(), line.end(), kPair);
       it != std::sregex_iterator(); ++it) {
    const size_t begin = static_cast<size_t>(it->position());
    pairs.push_back({begin, begin + it->length(), static_cast<size_t>(it->position(2))});
  }
  return pairs;
}

// One random edit of a request line.
std::string Mutate(const std::string& line, Rng* rng) {
  static const char* const kValues[] = {
      "1e308", "-1e308", "1e-320", "1e999", "2147483647", "2147483648", "-2147483649",
      "9223372036854775807", "9223372036854775808", "-1", "0", "-0", "0.5", "nan",
      "null", "true", "\"x\"", "\"\"", "[]", "{}", "[1, 2]", "{\"op\": \"run\"}"};
  static const char* const kOps[] = {"\"bogus\"", "\"restore\"", "\"scenario_swap\"",
                                     "\"snapshot\"", "\"RUN\"", "\"\"", "7"};
  auto pick = [rng](size_t n) { return static_cast<size_t>(rng->UniformInt(0, n - 1)); };
  std::string s = line;
  const std::vector<Pair> pairs = Pairs(s);
  if (pairs.empty()) {
    return s;
  }
  const Pair& p = pairs[pick(pairs.size())];
  switch (rng->UniformInt(0, 5)) {
    case 0:
    case 1:  // a numeric extreme or a value of another type
      s.replace(p.value_begin, p.end - p.value_begin, kValues[pick(std::size(kValues))]);
      break;
    case 2: {  // two keys or two values swapped
      const Pair& q = pairs[pick(pairs.size())];
      if (&p == &q) {
        break;
      }
      const bool keys = rng->Bernoulli(0.5);
      const Pair& a = p.begin < q.begin ? p : q;
      const Pair& b = p.begin < q.begin ? q : p;
      const size_t a_begin = keys ? a.begin : a.value_begin;
      const size_t b_begin = keys ? b.begin : b.value_begin;
      const size_t a_end = keys ? s.find(':', a.begin) : a.end;
      const size_t b_end = keys ? s.find(':', b.begin) : b.end;
      const std::string a_text = s.substr(a_begin, a_end - a_begin);
      const std::string b_text = s.substr(b_begin, b_end - b_begin);
      s.replace(b_begin, b_end - b_begin, a_text);  // the later span first
      s.replace(a_begin, a_end - a_begin, b_text);
      break;
    }
    case 3:  // a pair dropped (a dangling comma is fair game too)
      s.erase(p.begin, p.end - p.begin);
      break;
    case 4:  // a pair doubled: a duplicate key
      s.insert(p.end, ", " + s.substr(p.begin, p.end - p.begin));
      break;
    default: {  // an unknown or misplaced op
      const size_t op = s.find("\"op\"");
      if (op == std::string::npos) {
        break;
      }
      for (const Pair& q : pairs) {
        if (q.begin == op) {
          s.replace(q.value_begin, q.end - q.value_begin, kOps[pick(std::size(kOps))]);
        }
      }
      break;
    }
  }
  return s;
}

TEST(ServiceFuzzTest, MutatedRequestsAnswerOkOrAPositionedError) {
  const std::vector<std::vector<std::string>> logs = RequestLogs();
  ASSERT_GE(logs.size(), 4u);
  const std::string genesis = ReadFile(std::string(kGoldenDir) + "/scenario.json");
  const std::regex ok(R"(^\{"id":\d+,"ok":true[,}])");
  const std::regex positioned(R"(^\{"id":\d+,"ok":false,.*"error":"<request>:\d+:\d+: )");
  Rng rng(0x5e7e);
  int mutated = 0;
  int rejected = 0;
  for (int session_index = 0; session_index < 200; ++session_index) {
    std::string error;
    const std::unique_ptr<ServiceSession> session =
        ServiceSession::Create(genesis, "scenario.json", {}, &error);
    ASSERT_NE(session, nullptr) << error;
    const std::vector<std::string>& log = logs[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(logs.size()) - 1))];
    for (const std::string& original : log) {
      std::string line = original;
      if (rng.Bernoulli(0.4)) {
        ++mutated;
        for (int64_t m = rng.UniformInt(1, 3); m > 0; --m) {
          line = Mutate(line, &rng);
        }
      }
      bool shutdown = false;
      const std::string response = session->HandleLine(line, &shutdown);
      if (!std::regex_search(response, ok)) {
        ++rejected;
        EXPECT_TRUE(std::regex_search(response, positioned))
            << "request: " << line << "\nresponse: " << response;
      }
      if (shutdown || HasFailure()) {
        break;  // the service stops here; one failing request is enough to read
      }
    }
    EXPECT_FALSE(session->audit_failed()) << "session " << session_index;
    if (HasFailure()) {
      break;
    }
  }
  // Both sides of the protocol were exercised.
  EXPECT_GT(mutated, 5000);
  EXPECT_GT(rejected, 2500);
}

}  // namespace
}  // namespace optimus
