// The `motto run` path, driven through the same public calls in the same
// order as `motto run --workload=F.ccl --stream=F.csv --mode=motto
// [--threads=N]`: LoadWorkloadFile, LoadStreamCsv, ComputeStats, Optimizer,
// then ParallelExecutor (threads > 1) or Executor Create and Run, with the
// matches kept. Each call is timed from outside.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <tuple>
#include <utility>

#include "engine/executor.h"
#include "engine/parallel_executor.h"
#include "engine/sharded_executor.h"
#include "motto/optimizer.h"
#include "obs/opt_trace.h"
#include "spans.h"
#include "stats.h"
#include "workload/io.h"
#include "workloads.h"

namespace perfbench {

using motto::Status;
using Clock = std::chrono::steady_clock;

namespace {

/// Matches the CLI's defaults for --batch-size and --pipe-depth.
constexpr size_t kBatchSize = 512;
constexpr size_t kPipeDepth = 4;

struct BatchRep {
  double ccl_parse_s = 0;
  double csv_decode_s = 0;
  double stats_s = 0;
  double optimize_s = 0;
  double create_s = 0;
  double run_s = 0;
  double setup_s = 0;
  double wall_s = 0;
  // Counts, as doubles so every field takes the same median.
  double events = 0;
  double matches = 0;
  double arena_chunk_allocs = 0;
  double arena_live_high_water = 0;
  double worker_parks = 0;
  double handoffs = 0;
  double exact = 0;  ///< 1 when B&B finished within its budget.
  double sharing_edges = 0;
  double cost_ratio = 0;
  double bnb_expansions = 0;
  /// Kept only when the caller asks, for the runtime comparison.
  motto::EventStream stream;
  std::optional<motto::Jqp> jqp;
};

/// Pins the calling thread to each allowed CPU in turn; restores the
/// original affinity when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (pinned_) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0 || pinned_;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool pinned_ = false;
};

/// Times `call` and, when tracing, records it as a span named `name`.
template <typename F>
auto Timed(SpanRecorder* recorder, const char* name, double* seconds,
           F&& call) {
  const int32_t id = recorder->Begin(name);
  const Clock::time_point start = Clock::now();
  auto result = call();
  *seconds = Seconds(start, Clock::now());
  recorder->End(id);
  return result;
}

Counts RetainedCounts(const motto::RunResult& run, const Counts& ref) {
  Counts got;
  for (const auto& [query, count] : ref) {
    (void)count;
    auto it = run.sink_events.find(query);
    got[query] = it == run.sink_events.end() ? 0 : it->second.size();
  }
  for (const auto& [sink, events] : run.sink_events) {
    if (got.find(sink) == got.end()) got[sink] = events.size();
  }
  return got;
}

motto::Result<BatchRep> RunOnce(const WorkloadSpec& spec,
                                const InputFiles& files, const Counts& ref,
                                SpanRecorder* recorder, bool keep_inputs,
                                Report* report) {
  BatchRep rep;
  const Clock::time_point start = Clock::now();
  const int32_t root = recorder->Begin("batch.run");
  motto::EventTypeRegistry registry;
  MOTTO_ASSIGN_OR_RETURN(
      std::vector<motto::Query> queries,
      Timed(recorder, "workload.ccl_parse", &rep.ccl_parse_s, [&] {
        return motto::LoadWorkloadFile(files.workload(), &registry);
      }));
  MOTTO_ASSIGN_OR_RETURN(
      motto::EventStream stream,
      Timed(recorder, "workload.csv_decode", &rep.csv_decode_s,
            [&] { return motto::LoadStreamCsv(files.csv(), &registry); }));
  motto::StreamStats stats = Timed(recorder, "event.stats", &rep.stats_s,
                                   [&] { return motto::ComputeStats(stream); });
  motto::obs::OptimizerProbe probe;
  motto::OptimizerOptions options;
  options.mode = motto::OptimizerMode::kMotto;
  // The probe only records search telemetry; the traced run pays for it.
  if (recorder->enabled()) options.probe = &probe;
  MOTTO_ASSIGN_OR_RETURN(
      motto::OptimizeOutcome outcome,
      Timed(recorder, "motto.optimize", &rep.optimize_s, [&] {
        motto::Optimizer optimizer(&registry, stats, options);
        return optimizer.Optimize(queries);
      }));
  motto::ExecutorOptions exec_options;
  exec_options.eval_order = motto::EvalOrderMode::kArrival;
  std::optional<motto::ParallelExecutor> parallel;
  std::optional<motto::Executor> single;
  Status created = Timed(recorder, "engine.create", &rep.create_s, [&] {
    if (spec.threads > 1) {
      auto e = motto::ParallelExecutor::Create(outcome.jqp, spec.threads,
                                               kBatchSize, kPipeDepth);
      if (!e.ok()) return e.status();
      parallel.emplace(std::move(*e));
    } else {
      auto e = motto::Executor::Create(outcome.jqp);
      if (!e.ok()) return e.status();
      single.emplace(std::move(*e));
    }
    return Status::Ok();
  });
  MOTTO_RETURN_IF_ERROR(created);
  MOTTO_ASSIGN_OR_RETURN(
      motto::RunResult run, Timed(recorder, "engine.run", &rep.run_s, [&] {
        return parallel ? parallel->Run(stream, exec_options)
                        : single->Run(stream, exec_options);
      }));
  rep.wall_s = Seconds(start, Clock::now());
  recorder->End(root);

  rep.setup_s = rep.ccl_parse_s + rep.optimize_s + rep.create_s;
  rep.events = static_cast<double>(run.raw_events);
  rep.matches = static_cast<double>(run.TotalMatches());
  for (const motto::NodeStats& node : run.node_stats) {
    rep.arena_chunk_allocs += static_cast<double>(node.arena_chunk_allocs);
    rep.arena_live_high_water =
        std::max(rep.arena_live_high_water,
                 static_cast<double>(node.arena_live_high_water));
  }
  rep.worker_parks = static_cast<double>(run.parallel.worker_parks);
  rep.handoffs = static_cast<double>(run.parallel.handoffs);
  rep.exact = outcome.exact ? 1 : 0;
  rep.sharing_edges = static_cast<double>(outcome.sharing_graph.edges.size());
  rep.cost_ratio = outcome.default_cost > 0
                       ? outcome.planned_cost / outcome.default_cost
                       : 0.0;
  rep.bnb_expansions = static_cast<double>(probe.bnb.expansions);
  if (!outcome.exact) {
    report->Flag("B&B hit its budget: the plan is an approximation and may "
                 "differ between runs");
  }
  report->Check(spec.name, RetainedCounts(run, ref), ref, run.raw_events);
  if (keep_inputs) {
    rep.stream = std::move(stream);
    rep.jqp = std::move(outcome.jqp);
  }
  return rep;
}

double MedianOf(const std::vector<BatchRep>& reps, double BatchRep::*field) {
  std::vector<double> values;
  for (const BatchRep& rep : reps) values.push_back(rep.*field);
  return Median(values);
}

/// The single-threaded and sharded runtimes on the same stream and plan:
/// the baseline of engine.speedup and the other parallel runtime.
Status CompareRuntimes(const WorkloadSpec& spec, const BatchRep& rep,
                       const Counts& ref, SpanRecorder* recorder,
                       Report* report, double* run_1t_s,
                       double* run_sharded_s) {
  motto::ExecutorOptions exec_options;
  exec_options.eval_order = motto::EvalOrderMode::kArrival;
  ScopedSpan root(recorder, "engine.compare");
  {
    MOTTO_ASSIGN_OR_RETURN(motto::Executor executor,
                           motto::Executor::Create(*rep.jqp));
    MOTTO_ASSIGN_OR_RETURN(
        motto::RunResult run,
        Timed(recorder, "engine.run_1t", run_1t_s,
              [&] { return executor.Run(rep.stream, exec_options); }));
    report->Check(std::string(spec.name) + " (1 thread)",
                  RetainedCounts(run, ref), ref, run.raw_events);
  }
  MOTTO_ASSIGN_OR_RETURN(
      motto::ShardedExecutor sharded,
      motto::ShardedExecutor::Create(*rep.jqp, spec.threads, spec.threads));
  MOTTO_ASSIGN_OR_RETURN(
      motto::RunResult run,
      Timed(recorder, "engine.run_sharded", run_sharded_s,
            [&] { return sharded.Run(rep.stream, exec_options); }));
  report->Check(std::string(spec.name) + " (sharded)",
                RetainedCounts(run, ref), ref, run.raw_events);
  return Status::Ok();
}

}  // namespace

Status MeasureBatch(const WorkloadSpec& spec, const InputFiles& files,
                    double seconds, bool trace, const std::string& trace_path,
                    Report* report) {
  MOTTO_ASSIGN_OR_RETURN(Counts ref, LoadCounts(files.reference(spec.events)));
  SpanRecorder off(false);
  SpanRecorder spans(trace);
  const bool compare_runtimes = trace && spec.threads > 1;

  // Warm-up: page cache, allocator arenas and the first threaded run (cold
  // guest memory makes it up to twice as slow) are paid before timing.
  MOTTO_ASSIGN_OR_RETURN(
      BatchRep warm, RunOnce(spec, files, ref, &off, compare_runtimes, report));
  // The warm-up is the process's first repetition, as in a fresh `motto
  // run`; later ones start from a heap that earlier ones shaped.
  const double warm_peak_rss_mb = PeakRssMb();
  double run_1t_s = 0;
  double run_sharded_s = 0;
  const Clock::time_point start = Clock::now();
  if (compare_runtimes) {
    spans.set_run(0);
    MOTTO_RETURN_IF_ERROR(CompareRuntimes(spec, warm, ref, &spans, report,
                                          &run_1t_s, &run_sharded_s));
  }
  warm = BatchRep{};

  // Untraced repetitions; in the traced run they alternate with traced
  // ones so tracing overhead is measured under the same conditions.
  std::vector<BatchRep> plain;
  std::vector<BatchRep> traced;
  double longest = 0;
  // A single-threaded workload moves to the next CPU each repetition, so a
  // run samples every CPU rather than whichever one it started on.
  CpuRotation rotation;
  while (plain.empty() || traced.size() < (trace ? 1u : 0u) ||
         Seconds(start, Clock::now()) + longest < seconds) {
    const bool traced_rep = trace && traced.size() < plain.size();
    SpanRecorder* recorder = traced_rep ? &spans : &off;
    spans.set_run(static_cast<int32_t>(traced.size() + 1));
    if (spec.threads == 1) rotation.Next();
    MOTTO_ASSIGN_OR_RETURN(BatchRep rep,
                           RunOnce(spec, files, ref, recorder, false, report));
    longest = std::max(longest, rep.wall_s);
    std::fprintf(stderr,
                 "perfbench: %s rep: wall %.3f s = ccl %.3f + csv %.3f + "
                 "stats %.3f + optimize %.3f + create %.3f + run %.3f\n",
                 traced_rep ? "traced" : "untraced", rep.wall_s,
                 rep.ccl_parse_s, rep.csv_decode_s, rep.stats_s,
                 rep.optimize_s, rep.create_s, rep.run_s);
    (traced_rep ? traced : plain).push_back(std::move(rep));
  }
  report->Info("reps", static_cast<double>(plain.size()));

  if (!trace) {
    std::vector<double> rates;
    for (const BatchRep& r : plain) {
      rates.push_back(r.events / (r.wall_s - r.setup_s));
    }
    const double eps = Median(rates);
    const double wall_s = MedianOf(plain, &BatchRep::wall_s);
    report->Set("setup_s", MedianOf(plain, &BatchRep::setup_s), "s");
    report->Set("wall_s", wall_s, "s");
    report->Set("events_per_s", eps, "1/s");
    // A batch result appears whole when Run returns: every match waits the
    // full wall time, and the rate it sustains is the rate it reads at.
    report->Set("sustainable_eps", eps, "1/s");
    report->Set("p50_latency_ms", wall_s * 1e3, "ms");
    report->Set("p99_latency_ms", wall_s * 1e3, "ms");
    report->Info("latency_samples", static_cast<double>(plain.size()));
    report->Set("peak_rss_mb", warm_peak_rss_mb, "MB");
    return Status::Ok();
  }

  const LayerTimes layers =
      SummarizeRuns(spans, "batch.run", static_cast<int32_t>(traced.size()));
  for (const auto& [metric, span] :
       {std::pair{"workload.ccl_parse_s", "workload.ccl_parse"},
        {"workload.csv_decode_s", "workload.csv_decode"},
        {"event.stats_s", "event.stats"},
        {"motto.optimize_s", "motto.optimize"},
        {"engine.create_s", "engine.create"},
        {"engine.run_s", "engine.run"}}) {
    report->Set(metric, layers.Self(span), "s");
  }
  const double csv_bytes =
      static_cast<double>(std::filesystem::file_size(files.csv()));
  report->Set("workload.csv_mb_per_s",
              csv_bytes / 1e6 / layers.Self("workload.csv_decode"), "MB/s");
  for (const auto& [metric, field, unit] :
       {std::tuple{"motto.sharing_edges", &BatchRep::sharing_edges, "count"},
        {"planner.bnb_expansions", &BatchRep::bnb_expansions, "count"},
        {"planner.exact", &BatchRep::exact, "bool"},
        {"planner.cost_ratio", &BatchRep::cost_ratio, "ratio"},
        {"engine.matches", &BatchRep::matches, "count"},
        {"engine.arena_chunk_allocs", &BatchRep::arena_chunk_allocs, "count"},
        {"engine.arena_live_high_water", &BatchRep::arena_live_high_water,
         "count"},
        {"engine.parallel.worker_parks", &BatchRep::worker_parks, "count"},
        {"engine.parallel.handoffs", &BatchRep::handoffs, "count"}}) {
    report->Set(metric, MedianOf(traced, field), unit);
  }
  if (compare_runtimes) {
    report->Set("engine.run_1t_s", run_1t_s, "s");
    report->Set("engine.run_sharded_s", run_sharded_s, "s");
    report->Set("engine.speedup", run_1t_s / layers.Self("engine.run"),
                "ratio");
  }
  report->Set("trace.coverage", layers.coverage, "ratio");
  const double traced_wall = MedianOf(traced, &BatchRep::wall_s);
  const double plain_wall = MedianOf(plain, &BatchRep::wall_s);
  report->Set("trace.overhead_frac", traced_wall / plain_wall - 1.0, "ratio");
  report->Info("traced_wall_s", traced_wall);
  report->Info("untraced_wall_s", plain_wall);
  report->Info("traced_reps", static_cast<double>(traced.size()));
  if (!trace_path.empty() &&
      !spans.WriteChromeTrace(trace_path, spans.spans().size())) {
    return motto::InternalError("cannot write " + trace_path);
  }
  return Status::Ok();
}

}  // namespace perfbench
