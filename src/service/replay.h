// Deterministic request-replay harness for the online service mode.
//
// A replay log is the NDJSON request stream itself — one request per line,
// blank lines and '#' comments skipped — so a recorded session IS its own
// replay input. RunReplay streams the log through a ServiceSession and writes
// one response line per request; because the session's responses carry no
// wall-clock values, the response stream (and the session's final run
// report) is bitwise identical for any --threads setting and across repeated
// replays. The golden-session tests (tests/service_replay_test.cc) assert
// exactly that, byte for byte.
//
// The same harness doubles as the load generator: GenerateSyntheticRequests
// emits a seeded, deterministic op mix (what-if queries, metric snapshots,
// advances, submit/kill pairs); the replay tests drive it through sessions at
// several thread counts and compare every output byte.

#ifndef SRC_SERVICE_REPLAY_H_
#define SRC_SERVICE_REPLAY_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/service/session.h"

namespace optimus {

struct ReplayResult {
  int64_t requests = 0;
  int64_t errors = 0;          // requests answered with ok=false
  bool shutdown = false;       // the log contained a shutdown request
  // 0 on a clean replay, 3 when the simulator's invariant auditor reported
  // any violation — the same exit-code contract as optimus_sim.
  int exit_code = 0;
};

// Streams request lines from `in` through `session`, writing one response
// line per request to `out` (flushed per line when `flush_each`, for live
// stdio serving). Stops at EOF or after a shutdown request.
ReplayResult RunReplay(ServiceSession* session, std::istream& in,
                       std::ostream& out, bool flush_each = false);

// Emits `count` deterministic NDJSON request lines (seeded mix; same seed,
// same bytes) to `out`: 30% what_if, 20% advance, 1% submit/kill pairs, and
// metrics_snapshot for the rest, so the mix is read-heavy like a real
// monitoring client. The log ends without a shutdown so callers can append
// their own epilogue (e.g. a final metrics_snapshot + shutdown).
void GenerateSyntheticRequests(int64_t count, uint64_t seed, std::ostream& out);

}  // namespace optimus

#endif  // SRC_SERVICE_REPLAY_H_
