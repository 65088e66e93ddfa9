#include "src/common/flags.h"

#include <climits>
#include <cstdlib>

#include "src/common/logging.h"

namespace optimus {

namespace {

// "--no-foo" -> ("foo", "false"); "--foo" -> ("foo", ""); "--a=b" -> ("a","b").
bool ParseToken(const std::string& token, std::string* key, std::string* value,
                bool* had_value) {
  if (token.size() < 3 || token[0] != '-' || token[1] != '-') {
    return false;
  }
  std::string body = token.substr(2);
  const size_t eq = body.find('=');
  if (eq != std::string::npos) {
    *key = body.substr(0, eq);
    *value = body.substr(eq + 1);
    *had_value = true;
    return true;
  }
  if (body.rfind("no-", 0) == 0) {
    *key = body.substr(3);
    *value = "false";
    *had_value = true;
    return true;
  }
  *key = body;
  value->clear();
  *had_value = false;
  return true;
}

}  // namespace

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    std::string key;
    std::string value;
    bool had_value = false;
    if (!ParseToken(token, &key, &value, &had_value)) {
      positional_.push_back(token);
      continue;
    }
    if (!had_value) {
      // `--key value` form: consume the next token unless it is a flag.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    values_[key] = value;
    consumed_[key] = false;
  }
}

bool FlagParser::Has(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return false;
  }
  consumed_[key] = true;
  return true;
}

std::string FlagParser::GetString(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  consumed_[key] = true;
  return it->second;
}

int64_t FlagParser::GetInt(const std::string& key, int64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  consumed_[key] = true;
  char* end = nullptr;
  const int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  OPTIMUS_CHECK(end != nullptr && *end == '\0' && !it->second.empty())
      << "flag --" << key << " expects an integer, got '" << it->second << "'";
  return value;
}

int FlagParser::GetInt32(const std::string& key, int def) const {
  const int64_t value = GetInt(key, def);
  OPTIMUS_CHECK(value >= INT_MIN && value <= INT_MAX)
      << "flag --" << key << " expects an integer in [" << INT_MIN << ", "
      << INT_MAX << "], got '" << values_.at(key) << "'";
  return static_cast<int>(value);
}

double FlagParser::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  consumed_[key] = true;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  OPTIMUS_CHECK(end != nullptr && *end == '\0' && !it->second.empty())
      << "flag --" << key << " expects a number, got '" << it->second << "'";
  return value;
}

bool FlagParser::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  consumed_[key] = true;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v.empty()) {
    return true;
  }
  if (v == "false" || v == "0" || v == "no") {
    return false;
  }
  OPTIMUS_LOG(Fatal) << "flag --" << key << " expects a boolean, got '" << v << "'";
  return def;
}

std::vector<std::string> FlagParser::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!consumed_[key]) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace optimus
