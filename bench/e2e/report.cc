#include "bench/e2e/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace cyqr::e2e {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::AddOperations(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::vector<std::string> Report::names() const {
  std::vector<std::string> out;
  for (const Metric& m : metrics_) out.push_back(m.name);
  return out;
}

std::string Report::unit(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.unit;
  }
  return "";
}

std::string Report::Table() const {
  std::string out;
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g  %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  out += "}}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, r.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace cyqr::e2e
