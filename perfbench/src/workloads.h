#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "report.h"
#include "workload/data_gen.h"

namespace perfbench {

/// One benchmark workload. README.md says why each exists.
struct WorkloadSpec {
  const char* name;
  motto::Scenario scenario;
  int queries;
  /// Events in the generated stream.
  int64_t events;
  /// Batch: the `motto run --threads` value (1 runs the plain Executor).
  int threads;
  bool serve;
};

/// stock-batch, datacenter-batch and stock-serve; null for another name.
const WorkloadSpec* FindWorkload(const std::string& name);

// --- stock-serve constants ---

/// `motto serve --checkpoint-interval` (durable checkpoints).
inline constexpr uint64_t kCheckpointInterval = 10000;
/// Offered rate at which latency is reported (events/s).
inline constexpr double kReferenceRate = 100000;
/// Offered-rate ladder searched for the sustainable rate: rung k offers
/// kReferenceRate * kLadderStep^k events/s, each stair for kStairSeconds.
inline constexpr double kLadderStep = 1.04;
inline constexpr double kStairSeconds = 0.5;
/// The first climb starts at the highest rung at most this share of the
/// warm-up session's closed-loop rate.
inline constexpr double kClimbStartShare = 0.85;
/// A stair is sustained only when its p99 latency stays within this.
inline constexpr double kLatencyLimitMs = 500;

/// Inputs of one (workload, seed) pair, generated before any timing.
struct InputFiles {
  std::string dir;
  std::string workload() const { return dir + "/workload.ccl"; }
  std::string csv() const { return dir + "/stream.csv"; }
  std::string wire() const { return dir + "/stream.wire"; }
  /// NA reference counts over the first `events` events of the stream.
  std::string reference(int64_t events) const {
    return dir + "/reference-" + std::to_string(events) + ".txt";
  }
};

/// Writes the workload's CCL and its CSV (batch) or wire (serve) stream for
/// `seed`, then the unshared single-threaded reference counts.
motto::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                             const InputFiles& files);

motto::Result<Counts> LoadCounts(const std::string& path);

/// The measurement runs. Each prints nothing on stdout; the caller prints
/// the report. `trace` selects the traced run (per-layer metrics) over the
/// untraced one (end-to-end metrics); `work_dir` holds per-session state.
motto::Status MeasureBatch(const WorkloadSpec& spec, const InputFiles& files,
                           double seconds, bool trace,
                           const std::string& trace_path, Report* report);
motto::Status MeasureServe(const WorkloadSpec& spec, const InputFiles& files,
                           double seconds, bool trace,
                           const std::string& trace_path,
                           const std::string& work_dir, Report* report);

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Seconds between two steady-clock points.
inline double Seconds(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
