// Minimal streaming JSON writer for machine-readable artifacts (the
// benches' `BENCH_*.json` reports, which CI checks with tools/ci_assert.py,
// and the scenario runner's reports). Handles string escaping and comma
// placement; nesting is the caller's responsibility (begin/end calls must
// balance).
//
// Grew up in bench/bench_common.h; promoted to src/common/ when the
// workload layer started emitting the same artifacts from library code.
#pragma once

#include <cstdio>
#include <string>
#include <type_traits>

namespace mccp {

class JsonWriter {
 public:
  JsonWriter& begin_object(const std::string& key = "") { return open(key, '{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array(const std::string& key = "") { return open(key, '['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& field(const std::string& key, const std::string& value) {
    prefix(key);
    out_ += quote(value);
    return *this;
  }
  JsonWriter& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonWriter& field(const std::string& key, double value) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    prefix(key);
    out_ += buf;
    return *this;
  }
  /// One template for every integral width so std::size_t callers never
  /// hit overload ambiguity on platforms where size_t != uint64_t.
  template <typename T, std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                                         int> = 0>
  JsonWriter& field(const std::string& key, T value) {
    prefix(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& field(const std::string& key, bool value) {
    prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

  /// Write to `path`; returns false (with a message on stderr) on failure.
  bool write_file(const std::string& path) const { return write_text_file(path, out_); }

  /// Write arbitrary text (+ trailing newline) to `path`; returns false
  /// with a message on stderr on failure. Shared by callers that build
  /// their JSON elsewhere (e.g. workload::report_json).
  static bool write_text_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonWriter: cannot open %s\n", path.c_str());
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }

  /// JSON string literal (quotes + escapes) for `s` — public so line-based
  /// emitters (JSONL traces) escape identically to the writer.
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      switch (c) {
        case '"': q += "\\\""; break;
        case '\\': q += "\\\\"; break;
        case '\n': q += "\\n"; break;
        case '\t': q += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            q += buf;
          } else {
            q += c;
          }
      }
    }
    return q + "\"";
  }

 private:
  void prefix(const std::string& key) {
    if (need_comma_) out_ += ",";
    if (!key.empty()) out_ += quote(key) + ":";
    need_comma_ = true;
  }
  JsonWriter& open(const std::string& key, char bracket) {
    prefix(key);
    out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace mccp
