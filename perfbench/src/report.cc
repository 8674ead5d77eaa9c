#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

/// Shortest text that reads back as the same double ("%.17g" round-trips);
/// non-finite values, which JSON cannot carry, become -1.
std::string Num(double v) {
  if (!std::isfinite(v)) v = -1;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Flag(const std::string& message) {
  for (const std::string& f : flags_) {
    if (f == message) return;
  }
  std::fprintf(stderr, "perfbench: flag: %s\n", message.c_str());
  flags_.push_back(message);
}

void Report::Check(const std::string& what, const Counts& got,
                   const Counts& ref, uint64_t events, uint64_t dropped) {
  uint64_t wrong = dropped;
  uint64_t expected = 0;
  for (const auto& [query, count] : ref) {
    expected += count;
    auto it = got.find(query);
    const uint64_t have = it == got.end() ? 0 : it->second;
    wrong += have > count ? have - count : count - have;
  }
  for (const auto& [query, count] : got) {
    if (ref.find(query) == ref.end()) wrong += count;
  }
  attempted_ += expected + events;
  failed_ += wrong;
  if (wrong > 0) {
    std::fprintf(stderr,
                 "perfbench: %s: %llu wrong, missing, extra or dropped "
                 "(reference %llu matches over %llu events)\n",
                 what.c_str(), static_cast<unsigned long long>(wrong),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(events));
  }
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\":";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ',';
    first = false;
    out += Quote(name) + ":{\"value\":" + Num(metric.value) +
           ",\"unit\":" + Quote(metric.unit) + "}";
  }
  out += "},\"flags\":[";
  for (size_t i = 0; i < flags_.size(); ++i) {
    if (i > 0) out += ',';
    out += Quote(flags_[i]);
  }
  out += "],\"info\":{";
  first = true;
  for (const auto& [name, value] : info_) {
    if (!first) out += ',';
    first = false;
    out += Quote(name) + ":" + Num(value);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
