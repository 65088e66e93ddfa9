// NDJSON request protocol of the online service mode (docs/SERVICE.md).
//
// One request per line, one response line per request. Requests are parsed
// with the same strict position-tracking JSON reader the scenario DSL uses
// (src/workload/json.h): duplicate keys are rejected, nesting depth is
// bounded, and every rejection — parse or validation — carries a 1-based
// "<source>:<line>:<col>:" position so a client can point at the offending
// byte of its own request log.
//
// The op set is closed and each op has a closed key set; an unknown op or an
// unexpected key is an error, not a silent ignore. The common keys "op"
// (required), "id" (optional response-correlation integer; defaults to the
// request's 1-based sequence number) and "t_s" (optional client wall-clock
// timestamp, accepted and ignored so recorded logs replay bit-for-bit) are
// allowed on every op.

#ifndef SRC_SERVICE_PROTOCOL_H_
#define SRC_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/json.h"

namespace optimus {

struct ServiceRequest {
  std::string op;
  // Response-correlation id: the "id" key when given, else the request's
  // 1-based sequence number.
  int64_t id = 0;
  // The parsed request object; op-specific fields are read from here.
  JsonValue body;
};

// The closed op catalog, in documentation order.
const std::vector<std::string>& ServiceOps();

// Whether `op` mutates simulator state. Mutating ops are journaled by the
// session so a snapshot can be restored by deterministic replay.
bool IsMutatingServiceOp(const std::string& op);

// "<source>:<line>:<col>: message" using `at`'s recorded position — the
// shape every protocol rejection takes.
std::string PositionedError(const std::string& source, const JsonValue& at,
                            const std::string& message);

// Parses and structurally validates one request line: strict JSON, a
// top-level object, a known "op", an integral "id" when present, and no key
// outside the op's allowed set. On failure returns false with a positioned
// diagnostic in *error.
bool ParseServiceRequest(const std::string& line, const std::string& source,
                         int64_t sequence, ServiceRequest* request,
                         std::string* error);

}  // namespace optimus

#endif  // SRC_SERVICE_PROTOCOL_H_
