#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mbench {

namespace {

/// JSON number with every digit a double carries: values are reported as
/// measured.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      q += ' ';
    } else {
      q += c;
    }
  }
  return q + "\"";
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minor_faults = ru.ru_minflt;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  // ru_maxrss survives execve: it would report the launcher's footprint
  // when that was larger. VmHWM is the high-water mark of this program's
  // own address space.
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof(line), f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
        u.max_rss_mb = static_cast<double>(kib) / 1024.0;
    std::fclose(f);
  }
  return u;
}

// ---- Results ----------------------------------------------------------------

void Results::metric(const std::string& name, double value, const std::string& unit,
                     const std::string& layer, std::uint64_t samples) {
  metrics_[name] = Metric{value, unit, layer, samples};
}

void Results::check(bool ok, const std::string& what) { checks(1, ok ? 0 : 1, what); }

void Results::checks(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 32)
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(attempted) + ")");
}

bool Results::write(const std::string& path) const {
  std::string s = "{\n  \"attempted\": " + std::to_string(attempted_) +
                  ",\n  \"failed\": " + std::to_string(failed_) + ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    s += (i ? ", " : "") + quote(failures_[i]);
  s += "],\n  \"info\": {";
  bool first = true;
  for (const auto& [k, v] : info_) {
    s += (first ? "" : ", ") + quote(k) + ": " + quote(v);
    first = false;
  }
  s += "},\n  \"series\": {";
  first = true;
  for (const auto& [k, v] : series_) {
    s += std::string(first ? "" : ",") + "\n    " + quote(k) + ": [";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
    s += "]";
    first = false;
  }
  s += "},\n  \"counts\": {";
  first = true;
  for (const auto& [k, v] : counts_) {
    s += std::string(first ? "" : ", ") + "\n    " + quote(k) + ": " + std::to_string(v);
    first = false;
  }
  s += "},\n  \"metrics\": {";
  first = true;
  for (const auto& [k, m] : metrics_) {
    s += std::string(first ? "" : ",") + "\n    " + quote(k) + ": {\"value\": " + num(m.value) +
         ", \"unit\": " + quote(m.unit) + ", \"layer\": " + quote(m.layer) +
         ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  s += "}\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  return std::fclose(f) == 0 && ok;
}

// ---- Tracer -----------------------------------------------------------------

void Tracer::begin(const char* name) {
  const std::int64_t now = now_ns();
  std::int32_t record = -1;
  if (records_.size() < kMaxRecords) {
    records_.push_back({name, now, now, open_.empty() ? -1 : open_.back().record});
    record = static_cast<std::int32_t>(records_.size() - 1);
  }
  open_.push_back({name, now, 0, record});
}

void Tracer::end() {
  const std::int64_t now = now_ns();
  const Open span = open_.back();
  open_.pop_back();
  const std::int64_t dur = now - span.start_ns;
  Totals& t = totals_[span.name];
  t.total_ns += dur;
  t.self_ns += dur - span.child_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
  if (span.record >= 0) records_[static_cast<std::size_t>(span.record)].end_ns = now;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  Totals sum;
  for (const auto& [key, t] : totals_)
    if (name == key) {
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
  return sum;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) t0 = std::min(t0, r.start_ns);
  for (const PacketSpan& p : packets_) t0 = std::min(t0, p.start_ns);
  auto us = [t0](std::int64_t ns) { return static_cast<double>(ns - t0) / 1e3; };
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& s = records_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d}}",
                 first ? "" : ",\n", s.name, us(s.start_ns),
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    first = false;
  }
  for (const PacketSpan& p : packets_) {
    std::fprintf(f,
                 "%s{\"name\": \"packet\", \"cat\": \"packet\", \"ph\": \"b\", \"id\": %llu, "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f},\n"
                 "{\"name\": \"packet\", \"cat\": \"packet\", \"ph\": \"e\", \"id\": %llu, "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f}",
                 first ? "" : ",\n", static_cast<unsigned long long>(p.id), us(p.start_ns),
                 static_cast<unsigned long long>(p.id), us(p.end_ns));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace mbench
