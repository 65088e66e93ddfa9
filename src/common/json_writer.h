// Minimal deterministic JSON emission, shared by the bench harnesses and the
// scenario sweep runner.
//
// JsonObject is an ordered object builder: keys are emitted in insertion
// order, setting an existing key replaces its value in place, and doubles are
// formatted with 17 significant digits — for a fixed input the emitted bytes
// are fixed too, which is what the sweep determinism tests compare bitwise.

#ifndef SRC_COMMON_JSON_WRITER_H_
#define SRC_COMMON_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace optimus {

// JSON-escapes `s` and wraps it in double quotes. '"', '\\', '\n' and '\t' take
// their short escapes, every other byte below 0x20 takes \u00XX, and all other
// bytes (0x80 and above included) are copied. One pass sizes the output, a
// second copies each run of unescaped bytes in bulk.
std::string EncodeJsonString(const std::string& s);

// EncodeJsonString appended to `out`, quotes included.
void AppendJsonString(const std::string& s, std::string* out);

// Appends `value` exactly as printf("%.17g") prints it in the C locale, via
// std::to_chars, so the bytes never depend on the process's global locale.
// 17 significant digits round-trip every double; integral values print
// without a trailing ".0" ("42"); non-finite values print nan, -nan, inf or
// -inf. The one double formatter behind every JSON and metrics export.
void AppendDouble17(double value, std::string* out);

// AppendDouble17 as a JSON value: non-finite values are emitted as null
// (JSON has no NaN/Inf).
std::string EncodeJsonDouble(double value);

// Strips insignificant whitespace from already-encoded JSON text (string
// literals are preserved verbatim). Used to turn the pretty-printed encodings
// into single-line NDJSON payloads.
std::string CompactJson(const std::string& encoded);

// A minimal ordered JSON object builder: keys are emitted in insertion order,
// setting an existing key replaces its value in place. Values are encoded on
// Set, so nested objects/arrays are copied by value.
class JsonObject {
 public:
  void Set(const std::string& key, double value);
  void Set(const std::string& key, int64_t value);
  void Set(const std::string& key, int value) { Set(key, static_cast<int64_t>(value)); }
  void Set(const std::string& key, bool value);
  void Set(const std::string& key, const std::string& value);
  void Set(const std::string& key, const char* value);
  void Set(const std::string& key, const JsonObject& value);
  void Set(const std::string& key, const std::vector<JsonObject>& values);
  void Set(const std::string& key, const std::vector<double>& values);
  void Set(const std::string& key, const std::vector<std::string>& values);

  // Serializes with two-space indentation; `indent` is the starting depth.
  std::string ToString(int indent = 0) const;

  // Single-line serialization with no whitespace, for NDJSON streams: one
  // response per line means a reader can frame on '\n' alone. The output is
  // sized once and each entry written in place. A value that starts and ends
  // with '"' is one string token (only the string Sets make one, and
  // CompactJson is the identity on it), so it is copied verbatim: a large
  // string payload costs its one escape pass in Set and a copy here. Objects
  // and arrays still go through CompactJson.
  std::string ToCompactString() const;

 private:
  void SetRaw(const std::string& key, std::string encoded);

  std::vector<std::pair<std::string, std::string>> entries_;  // key -> encoded
};

// Merges `value` into the JSON file at `path` as the top-level key `section`:
// other top-level sections already in the file are preserved verbatim, an
// existing `section` is replaced, and a missing file is created. A file that
// does not scan as a flat JSON object is overwritten (with a warning) so a
// corrupt file never wedges the writers. Returns false if the file could not
// be written.
bool WriteBenchJsonSection(const std::string& path, const std::string& section,
                           const JsonObject& value);

}  // namespace optimus

#endif  // SRC_COMMON_JSON_WRITER_H_
