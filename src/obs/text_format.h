// Shared text-formatting helpers for the observability exporters.
//
// The exporters build their output in one std::string. Every number goes
// through AppendDouble17 (src/common/json_writer.h: printf("%.17g") in the C
// locale, via std::to_chars) or AppendInt (std::to_chars). Neither reads the
// process's global locale nor a caller stream's format flags, so for a fixed
// simulation outcome the exported bytes are fixed — the property the
// bitwise-determinism tests and golden files rely on. 17 significant digits
// round-trip every double, and integral values print without a trailing ".0"
// ("42", not "42.0").

#ifndef SRC_OBS_TEXT_FORMAT_H_
#define SRC_OBS_TEXT_FORMAT_H_

#include <charconv>
#include <string>

#include "src/common/json_writer.h"

namespace optimus {
namespace obs_internal {

// AppendDouble17 into a new string, for writers that stream (the
// flight-recorder dump).
inline std::string FormatDouble17(double v) {
  std::string out;
  AppendDouble17(v, &out);
  return out;
}

// Appends the decimal spelling of an integer (no locale grouping).
template <typename Int>
void AppendInt(Int v, std::string* out) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

}  // namespace obs_internal
}  // namespace optimus

#endif  // SRC_OBS_TEXT_FORMAT_H_
