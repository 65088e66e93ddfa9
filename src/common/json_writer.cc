#include "src/common/json_writer.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"

namespace optimus {

namespace {

// Encoded width of each byte inside a JSON string: 1 for bytes copied as-is,
// 2 for the short escapes (\", \\, \n, \t), 6 for \u00XX (every other
// byte below 0x20).
constexpr std::array<uint8_t, 256> kEscapedWidth = [] {
  std::array<uint8_t, 256> width{};
  for (int c = 0; c < 256; ++c) {
    width[c] = c < 0x20 ? 6 : 1;
  }
  width['"'] = width['\\'] = width['\n'] = width['\t'] = 2;
  return width;
}();

}  // namespace

void AppendJsonString(const std::string& s, std::string* out) {
  size_t encoded = 2;
  for (const char c : s) {
    encoded += kEscapedWidth[static_cast<unsigned char>(c)];
  }
  const size_t start = out->size();
  out->resize(start + encoded);
  char* w = out->data() + start;
  *w++ = '"';
  const char* run = s.data();  // first byte not yet copied
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (kEscapedWidth[c] == 1) {
      continue;
    }
    std::memcpy(w, run, static_cast<size_t>(p - run));
    w += p - run;
    run = p + 1;
    *w++ = '\\';
    switch (c) {
      case '"':
      case '\\':
        *w++ = static_cast<char>(c);
        break;
      case '\n':
        *w++ = 'n';
        break;
      case '\t':
        *w++ = 't';
        break;
      default:
        *w++ = 'u';
        *w++ = '0';
        *w++ = '0';
        *w++ = "0123456789abcdef"[c >> 4];
        *w++ = "0123456789abcdef"[c & 0xf];
    }
  }
  std::memcpy(w, run, static_cast<size_t>(end - run));
  w += end - run;
  *w = '"';
}

namespace {

// CompactJson appended to `out`.
void AppendCompactJson(const std::string& encoded, std::string* out) {
  bool in_string = false;
  for (size_t i = 0; i < encoded.size(); ++i) {
    const char c = encoded[i];
    if (in_string) {
      *out += c;
      if (c == '\\' && i + 1 < encoded.size()) {
        *out += encoded[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      continue;
    }
    *out += c;
    if (c == '"') {
      in_string = true;
    }
  }
}

}  // namespace

std::string EncodeJsonString(const std::string& s) {
  std::string out;
  AppendJsonString(s, &out);
  return out;
}

void AppendDouble17(double value, std::string* out) {
  // "-" + 17 digits + "." + "e-308" fits in 24 chars; 32 leaves headroom.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

std::string EncodeJsonDouble(double value) {
  if (!std::isfinite(value)) {
    return "null";  // JSON has no NaN/Inf
  }
  std::string out;
  AppendDouble17(value, &out);
  return out;
}

std::string CompactJson(const std::string& encoded) {
  std::string out;
  out.reserve(encoded.size());
  AppendCompactJson(encoded, &out);
  return out;
}

namespace {

// Re-indents an encoded value by `indent` levels: every newline in the
// encoding gets 2 * indent extra leading spaces. Encoded values are produced
// at depth 0, so this is what nests them under a deeper key.
std::string Reindent(const std::string& encoded, int indent) {
  if (indent <= 0) {
    return encoded;
  }
  const std::string pad(2 * static_cast<size_t>(indent), ' ');
  std::string out;
  for (char c : encoded) {
    out += c;
    if (c == '\n') {
      out += pad;
    }
  }
  return out;
}

}  // namespace

void JsonObject::SetRaw(const std::string& key, std::string encoded) {
  for (auto& entry : entries_) {
    if (entry.first == key) {
      entry.second = std::move(encoded);
      return;
    }
  }
  entries_.emplace_back(key, std::move(encoded));
}

void JsonObject::Set(const std::string& key, double value) {
  SetRaw(key, EncodeJsonDouble(value));
}

void JsonObject::Set(const std::string& key, int64_t value) {
  SetRaw(key, std::to_string(value));
}

void JsonObject::Set(const std::string& key, bool value) {
  SetRaw(key, value ? "true" : "false");
}

void JsonObject::Set(const std::string& key, const std::string& value) {
  SetRaw(key, EncodeJsonString(value));
}

void JsonObject::Set(const std::string& key, const char* value) {
  SetRaw(key, EncodeJsonString(value));
}

void JsonObject::Set(const std::string& key, const JsonObject& value) {
  SetRaw(key, value.ToString(0));
}

void JsonObject::Set(const std::string& key, const std::vector<JsonObject>& values) {
  if (values.empty()) {
    SetRaw(key, "[]");
    return;
  }
  std::string out = "[\n";
  for (size_t i = 0; i < values.size(); ++i) {
    out += "  " + Reindent(values[i].ToString(0), 1);
    out += i + 1 < values.size() ? ",\n" : "\n";
  }
  out += "]";
  SetRaw(key, std::move(out));
}

void JsonObject::Set(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += EncodeJsonDouble(values[i]);
  }
  out += "]";
  SetRaw(key, std::move(out));
}

void JsonObject::Set(const std::string& key, const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += EncodeJsonString(values[i]);
  }
  out += "]";
  SetRaw(key, std::move(out));
}

std::string JsonObject::ToCompactString() const {
  // Compaction never grows a value and escaping at most sextuples a key, so
  // this bound sizes the output once.
  size_t bound = 2;  // braces
  for (const auto& [key, value] : entries_) {
    bound += 2 + (2 + 6 * key.size()) + value.size();  // comma, colon, key, value
  }
  std::string out;
  out.reserve(bound);
  out += '{';
  for (size_t i = 0; i < entries_.size(); ++i) {
    const std::string& value = entries_[i].second;
    if (i > 0) {
      out += ',';
    }
    AppendJsonString(entries_[i].first, &out);
    out += ':';
    // A value that starts and ends with '"' is one encoded string token
    // (only Set(string) and Set(const char*) make one), on which compaction
    // is the identity: copy it verbatim.
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      out += value;
    } else {
      AppendCompactJson(value, &out);
    }
  }
  out += '}';
  return out;
}

std::string JsonObject::ToString(int indent) const {
  if (entries_.empty()) {
    return "{}";
  }
  const std::string pad(2 * static_cast<size_t>(indent) + 2, ' ');
  std::string out = "{\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    out += pad + EncodeJsonString(entries_[i].first) + ": " +
           Reindent(entries_[i].second, indent + 1);
    out += i + 1 < entries_.size() ? ",\n" : "\n";
  }
  out += std::string(2 * static_cast<size_t>(indent), ' ') + "}";
  return out;
}

namespace {

// Splits the text of a flat JSON object into ordered (key, raw value text)
// pairs with a string- and nesting-aware scanner. Returns false when the text
// is not a single top-level object (callers then overwrite the file).
bool ScanTopLevelSections(const std::string& text,
                          std::vector<std::pair<std::string, std::string>>* out) {
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') {
    return false;
  }
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    return true;  // empty object
  }
  while (i < text.size()) {
    // Key.
    if (text[i] != '"') {
      return false;
    }
    std::string key;
    ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        key += text[i + 1];  // good enough for section names
        i += 2;
      } else {
        key += text[i++];
      }
    }
    if (i >= text.size()) {
      return false;
    }
    ++i;  // closing quote
    skip_ws();
    if (i >= text.size() || text[i] != ':') {
      return false;
    }
    ++i;
    skip_ws();
    // Value: scan to the comma or brace that closes it at depth 0.
    const size_t value_start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0) {
          break;  // the object's closing brace
        }
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    if (i >= text.size()) {
      return false;
    }
    std::string value = text.substr(value_start, i - value_start);
    while (!value.empty() && std::isspace(static_cast<unsigned char>(value.back()))) {
      value.pop_back();
    }
    out->emplace_back(std::move(key), std::move(value));
    if (text[i] == '}') {
      return true;
    }
    ++i;  // comma
    skip_ws();
  }
  return false;
}

}  // namespace

bool WriteBenchJsonSection(const std::string& path, const std::string& section,
                           const JsonObject& value) {
  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string text = buffer.str();
      if (!text.empty() && !ScanTopLevelSections(text, &sections)) {
        OPTIMUS_LOG(Warning) << path << " is not a flat JSON object; overwriting";
        sections.clear();
      }
    }
  }

  const std::string encoded = value.ToString(1);
  bool replaced = false;
  for (auto& entry : sections) {
    if (entry.first == section) {
      entry.second = encoded;
      replaced = true;
      break;
    }
  }
  if (!replaced) {
    sections.emplace_back(section, encoded);
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    OPTIMUS_LOG(Warning) << "cannot write " << path;
    return false;
  }
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << "  " << EncodeJsonString(sections[i].first) << ": " << sections[i].second;
    out << (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
  return out.good();
}

}  // namespace optimus
