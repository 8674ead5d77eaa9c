#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Per-query match counts, keyed by query (sink) name.
using Counts = std::map<std::string, uint64_t, std::less<>>;

/// What one measurement process prints: named metrics with units, the
/// correctness tally, plan-stability and load-validity flags, and extra
/// facts (sample counts, the traced total) that explain the metrics.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, double value) { info_[name] = value; }
  void Flag(const std::string& message);

  /// Compares `got` with the reference counts of the same input: every
  /// match missing or extra counts as failed, as does every event in
  /// `dropped`. Attempted grows by the reference matches plus `events`.
  void Check(const std::string& what, const Counts& got, const Counts& ref,
             uint64_t events, uint64_t dropped = 0);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// One-line JSON: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..}},"flags":[..],"info":{..}}.
  std::string ToJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> info_;
  std::vector<std::string> flags_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
