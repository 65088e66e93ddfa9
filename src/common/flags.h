// Minimal --key=value command-line flag parsing for the CLI tools.
//
// Supports `--key=value`, `--key value`, and boolean `--key` /
// `--no-key` forms. Unrecognized flags are collected so tools can reject
// typos instead of silently ignoring them.

#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace optimus {

class FlagParser {
 public:
  // Parses argv; positional (non --) arguments are kept in order.
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& key) const;

  // Typed getters with defaults. A present-but-malformed value is fatal.
  std::string GetString(const std::string& key, const std::string& def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  // GetInt for an `int` value: one outside int's range is fatal too, rather
  // than wrapping in a narrowing cast.
  int GetInt32(const std::string& key, int def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Keys that were parsed but never queried; call after all Get*s to reject
  // unknown flags.
  std::vector<std::string> UnconsumedKeys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace optimus

#endif  // SRC_COMMON_FLAGS_H_
