#include <sys/resource.h>

#include <fstream>

#include "engine/executor.h"
#include "motto/optimizer.h"
#include "serve/wire.h"
#include "workload/io.h"
#include "workload/query_gen.h"
#include "workloads.h"

namespace perfbench {

using motto::Status;

namespace {

// Table IV mix at r = 100%, nesting level 2, 40 queries: the stock plan
// shares a lot and B&B still proves it optimal well inside its budget; the
// data-center plan shares little and optimizes in milliseconds.
constexpr WorkloadSpec kWorkloads[] = {
    {"stock-batch", motto::Scenario::kStockMarket, 40, 1000000, 4, false},
    {"datacenter-batch", motto::Scenario::kDataCenter, 40, 1000000, 1, false},
    {"stock-serve", motto::Scenario::kStockMarket, 40, 300000, 1, true},
};

/// The query set is fixed; --seed varies the event stream. Half of the
/// 40-query stock sets the generator makes hit B&B's 5 s budget, and then
/// the plan (and the set-up time) depends on host speed. This one is solved
/// exactly in about a quarter of the budget.
constexpr uint64_t kQuerySeed = 7;

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return motto::InternalError("cannot open " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out.flush()) return motto::InternalError("write failed for " + path);
  return Status::Ok();
}

/// Unshared plan, one thread, counts only: the reference every measured
/// run must reproduce.
motto::Result<Counts> ReferenceCounts(const std::vector<motto::Query>& queries,
                                      const motto::EventStream& stream,
                                      motto::EventTypeRegistry* registry) {
  motto::OptimizerOptions options;
  options.mode = motto::OptimizerMode::kNa;
  motto::Optimizer optimizer(registry, motto::ComputeStats(stream), options);
  MOTTO_ASSIGN_OR_RETURN(motto::OptimizeOutcome outcome,
                         optimizer.Optimize(queries));
  MOTTO_ASSIGN_OR_RETURN(motto::Executor executor,
                         motto::Executor::Create(outcome.jqp));
  motto::ExecutorOptions exec_options;
  exec_options.count_matches_only = true;
  MOTTO_ASSIGN_OR_RETURN(motto::RunResult run,
                         executor.Run(stream, exec_options));
  Counts counts;
  for (const motto::Query& query : queries) {
    auto it = run.sink_counts.find(query.name);
    counts[query.name] = it == run.sink_counts.end() ? 0 : it->second;
  }
  return counts;
}

Status SaveCounts(const std::string& path, const Counts& counts) {
  std::string text;
  for (const auto& [query, count] : counts) {
    text += query + " " + std::to_string(count) + "\n";
  }
  return WriteText(path, text);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

motto::Result<Counts> LoadCounts(const std::string& path) {
  std::ifstream in(path);
  if (!in) return motto::InternalError("cannot open " + path);
  Counts counts;
  std::string query;
  uint64_t count = 0;
  while (in >> query >> count) counts[query] = count;
  if (counts.empty()) return motto::InternalError("no counts in " + path);
  return counts;
}

Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const InputFiles& files) {
  motto::EventTypeRegistry registry;
  motto::WorkloadOptions workload_options;
  workload_options.scenario = spec.scenario;
  workload_options.num_queries = spec.queries;
  workload_options.basic_ratio = 1.0;
  workload_options.nested_level = 2;
  workload_options.seed = kQuerySeed;
  MOTTO_ASSIGN_OR_RETURN(motto::GeneratedWorkload workload,
                         motto::GenerateWorkload(workload_options, &registry));
  MOTTO_RETURN_IF_ERROR(
      motto::SaveWorkloadFile(files.workload(), workload.queries, registry));

  motto::StreamOptions stream_options;
  stream_options.scenario = spec.scenario;
  stream_options.num_events = spec.events;
  stream_options.seed = seed;
  motto::EventStream stream = motto::GenerateStream(stream_options, &registry);
  if (spec.serve) {
    MOTTO_RETURN_IF_ERROR(
        WriteText(files.wire(), motto::serve::EncodeStream(stream, registry)));
  } else {
    MOTTO_RETURN_IF_ERROR(motto::SaveStreamCsv(files.csv(), stream, registry));
  }

  // The reference sees the generated values, not the system's decoders.
  MOTTO_ASSIGN_OR_RETURN(
      Counts counts, ReferenceCounts(workload.queries, stream, &registry));
  return SaveCounts(files.reference(spec.events), counts);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
