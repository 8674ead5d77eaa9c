// The `motto serve` path, driven through the same public calls as `motto
// serve --workload=F.ccl --scenario=stock --checkpoint-dir=D --out-dir=O`:
// LoadWorkloadFile, the scenario's synthetic statistics stream,
// ServeCore::Create, RunIngestLoop over a pipe, Finish. One process drives
// the load in an open loop from four threads: the generator writes wire
// frames into the pipe on a fixed schedule, the transport reader and the
// engine run inside RunIngestLoop, and a tailer timestamps every match line
// as it becomes visible in conn0.matches.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "motto/optimizer.h"
#include "obs/metrics.h"
#include "obs/opt_trace.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "spans.h"
#include "stats.h"
#include "workload/io.h"
#include "workloads.h"

namespace perfbench {

using motto::Result;
using motto::Status;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

/// Events of the scenario stream `motto serve` synthesizes for its cost
/// statistics when no --stream is given.
constexpr int64_t kStatsEvents = 30000;
/// `motto serve --ingest-queue` default.
constexpr size_t kQueueCapacity = 4096;
/// Generator wake-up granularity and backlog sampling period.
constexpr double kGeneratorTickSeconds = 50e-6;
constexpr double kBacklogSampleSeconds = 0.002;
/// The traced run records two spans per frame; the trace file keeps the
/// first 100k spans (the set-up and about the first 50k frames).
constexpr size_t kMaxTraceSpans = 100000;

/// The generated wire stream with the byte offset at which each event frame
/// ends, so a session can send any prefix on frame boundaries.
struct WireInput {
  std::string bytes;
  size_t header_end = 0;           ///< Hello and type registrations.
  std::vector<size_t> event_end;   ///< Offset after event frame i.
  std::vector<int64_t> timestamps; ///< Timestamp of event i.
};

motto::Result<WireInput> LoadWire(const std::string& path) {
  WireInput wire;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return motto::InternalError("cannot open " + path);
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    wire.bytes.append(buf, n);
  }
  std::fclose(in);
  motto::serve::FrameDecoder decoder;
  decoder.Append(wire.bytes.data(), wire.bytes.size());
  motto::serve::Frame frame;
  for (;;) {
    auto outcome = decoder.Next(&frame);
    if (outcome == motto::serve::FrameDecoder::Outcome::kError) {
      return motto::InternalError(path + ": " + decoder.error());
    }
    if (outcome == motto::serve::FrameDecoder::Outcome::kNeedMore) break;
    const size_t offset = wire.bytes.size() - decoder.buffered();
    if (frame.type == motto::serve::FrameType::kEvent) {
      wire.event_end.push_back(offset);
      wire.timestamps.push_back(frame.ts);
    } else if (wire.event_end.empty()) {
      wire.header_end = offset;
    }
  }
  return wire;
}

/// The transport pipe; closes whatever is still open.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() = default;
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  ~Pipe() {
    CloseWriteEnd();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  void CloseWriteEnd() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

/// Raises `flag` when the scope ends, on error paths too.
class StopOnExit {
 public:
  explicit StopOnExit(std::atomic<bool>* flag) : flag_(flag) {}
  ~StopOnExit() { flag_->store(true); }
  StopOnExit(const StopOnExit&) = delete;
  StopOnExit& operator=(const StopOnExit&) = delete;

 private:
  std::atomic<bool>* flag_;
};

struct BacklogSample {
  double t = 0;           ///< Seconds after the schedule start.
  uint64_t due = 0;       ///< Events due by then.
  uint64_t ingested = 0;  ///< Events the engine had applied by then.
};

/// One server lifetime: create, stream `schedule.total()` events plus an
/// end frame through the pipe, finish.
struct Session {
  double setup_s = 0;
  double wall_s = 0;  ///< Start to Finish returned (all output durable).
  uint64_t events = 0;
  Counts released;                  ///< Match lines per query in the file.
  std::vector<float> latency_s;     ///< Per match line, due to visible.
  std::vector<uint16_t> latency_segment;
  std::vector<BacklogSample> backlog;
  std::vector<double> gen_lag_s;  ///< Per generator wake-up with work due.
  std::vector<uint16_t> gen_lag_segment;
  size_t max_queue_depth = 0;
  uint64_t dropped = 0;  ///< Shed, late or unknown-type events.
  uint64_t output_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  bool exact = false;
};

/// Stats the way `motto serve` builds them without --stream.
motto::StreamStats ScenarioStats(motto::Scenario scenario,
                                 motto::EventTypeRegistry* registry,
                                 SpanRecorder* recorder) {
  motto::StreamOptions options;
  options.scenario = scenario;
  options.num_events = kStatsEvents;
  motto::EventStream stream;
  {
    ScopedSpan span(recorder, "workload.stats_stream");
    stream = motto::GenerateStream(options, registry);
  }
  ScopedSpan span(recorder, "event.stats");
  return motto::ComputeStats(stream);
}

struct CoreSetup {
  std::unique_ptr<motto::serve::ServeCore> core;
  std::unique_ptr<motto::obs::MetricsRegistry> metrics;
  std::unique_ptr<motto::obs::OptimizerProbe> probe;
};

/// Empties a session's state directory (before its clock starts).
Status ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return motto::InternalError("cannot create " + dir);
  return Status::Ok();
}

motto::Result<CoreSetup> CreateCore(const WorkloadSpec& spec,
                                    const InputFiles& files,
                                    const std::string& work_dir,
                                    SpanRecorder* recorder) {
  CoreSetup setup;
  setup.metrics = std::make_unique<motto::obs::MetricsRegistry>();
  setup.probe = std::make_unique<motto::obs::OptimizerProbe>();
  motto::EventTypeRegistry registry;
  std::vector<motto::Query> queries;
  {
    ScopedSpan span(recorder, "workload.ccl_parse");
    MOTTO_ASSIGN_OR_RETURN(
        queries, motto::LoadWorkloadFile(files.workload(), &registry));
  }
  motto::StreamStats stats = ScenarioStats(spec.scenario, &registry, recorder);
  motto::serve::ServeOptions options;
  options.checkpoint_dir = work_dir + "/ckpt";
  options.checkpoint_interval = kCheckpointInterval;
  options.out_dir = work_dir + "/out";
  options.eval_order = motto::EvalOrderMode::kArrival;
  options.metrics = setup.metrics.get();
  // Search telemetry tells whether this server's B&B finished in budget.
  options.optimizer.probe = setup.probe.get();
  ScopedSpan span(recorder, "serve.create");
  MOTTO_ASSIGN_OR_RETURN(setup.core,
                         motto::serve::ServeCore::Create(
                             queries, registry, std::move(stats), options));
  return setup;
}

void SessionOutputSizes(const std::string& work_dir, Session* session) {
  std::error_code ec;
  session->output_bytes = fs::file_size(work_dir + "/out/conn0.matches", ec);
  for (const auto& entry : fs::directory_iterator(work_dir + "/ckpt", ec)) {
    if (entry.is_regular_file()) {
      session->checkpoint_bytes =
          std::max<uint64_t>(session->checkpoint_bytes, entry.file_size());
    }
  }
}

uint64_t DroppedEvents(motto::obs::MetricsRegistry* metrics, uint64_t shed) {
  return shed + metrics->GetCounter("serve.late_events")->value +
         metrics->GetCounter("serve.unknown_type_events")->value;
}

/// Parses match lines ("query\tbegin\tend\tfingerprint") as the tailer
/// sees them; `on_line(query, end)` runs per complete line.
template <typename F>
void ConsumeLines(std::string* carry, const char* data, size_t size,
                  F&& on_line) {
  carry->append(data, size);
  size_t pos = 0;
  for (;;) {
    const size_t nl = carry->find('\n', pos);
    if (nl == std::string::npos) break;
    std::string_view line(carry->data() + pos, nl - pos);
    const size_t t1 = line.find('\t');
    constexpr size_t kNone = std::string_view::npos;
    const size_t t2 = t1 == kNone ? t1 : line.find('\t', t1 + 1);
    const size_t t3 = t2 == kNone ? t2 : line.find('\t', t2 + 1);
    int64_t end = 0;
    if (t3 != std::string_view::npos) {
      std::from_chars(line.data() + t2 + 1, line.data() + t3, end);
    }
    on_line(line.substr(0, t1), end);
    pos = nl + 1;
  }
  carry->erase(0, pos);
}

motto::Result<Session> RunSession(const WorkloadSpec& spec,
                                  const InputFiles& files,
                                  const WireInput& wire,
                                  const Schedule& schedule,
                                  const std::string& work_dir) {
  Session session;
  session.events = schedule.total();
  SpanRecorder off(false);
  MOTTO_RETURN_IF_ERROR(ResetDir(work_dir));
  const Clock::time_point start = Clock::now();
  MOTTO_ASSIGN_OR_RETURN(CoreSetup setup,
                         CreateCore(spec, files, work_dir, &off));
  motto::serve::ServeCore* core = setup.core.get();
  session.setup_s = Seconds(start, Clock::now());
  session.exact = setup.probe->selected_solver == "bnb" &&
                  !setup.probe->bnb.deadline_hit;

  Pipe pipe;
  if (::pipe(pipe.fds) != 0) return motto::InternalError("pipe failed");
  ::fcntl(pipe.fds[1], F_SETFL, O_NONBLOCK);
  std::string end_frame;
  motto::serve::AppendControl(&end_frame, motto::serve::FrameType::kEnd);
  const size_t prefix_len = wire.event_end[session.events - 1];
  const size_t total_len = prefix_len + end_frame.size();
  std::atomic<uint64_t> ingested{0};
  std::atomic<bool> engine_done{false};
  const std::string out_path = core->OutputPath();
  const Clock::time_point t0 = Clock::now();
  auto since_t0 = [t0] { return Seconds(t0, Clock::now()); };

  // Generator: keeps to the schedule whatever the server does. Frames the
  // pipe cannot take yet wait on the generator's side (they are a byte
  // range of `wire`), and the backlog is sampled as due minus ingested.
  auto generate = [&] {
    size_t written = 0;
    uint64_t available = 0;
    double next_sample = 0;
    // Stops early only when the engine gave up (a failed session).
    while (written < total_len && !engine_done.load()) {
      const double now = since_t0();
      const uint64_t due = schedule.DueCount(now);
      if (due > available) {
        session.gen_lag_s.push_back(now - schedule.DueSeconds(available));
        session.gen_lag_segment.push_back(
            static_cast<uint16_t>(schedule.SegmentOf(available)));
        available = due;
      }
      size_t limit = wire.header_end;
      if (due >= session.events) {
        limit = total_len;
      } else if (due > 0) {
        limit = wire.event_end[due - 1];
      }
      while (written < limit) {
        const bool in_prefix = written < prefix_len;
        const char* data = in_prefix
                               ? wire.bytes.data() + written
                               : end_frame.data() + (written - prefix_len);
        const size_t end = in_prefix ? std::min(limit, prefix_len) : limit;
        const size_t chunk = std::min<size_t>(end - written, 1 << 16);
        const ssize_t n = ::write(pipe.fds[1], data, chunk);
        if (n > 0) {
          written += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;  // Pipe full: the frames stay queued on this side.
        }
      }
      if (now >= next_sample) {
        session.backlog.push_back({now, due, ingested.load()});
        next_sample = now + kBacklogSampleSeconds;
      }
      if (written == total_len) break;
      if (written < limit) {
        pollfd pfd{pipe.fds[1], POLLOUT, 0};
        ::poll(&pfd, 1, 1);
      } else {
        const double wake = std::max(schedule.DueSeconds(due),
                                     now + kGeneratorTickSeconds);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(wake)));
      }
    }
    pipe.CloseWriteEnd();
    while (!engine_done.load()) {
      session.backlog.push_back({since_t0(), session.events, ingested.load()});
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kBacklogSampleSeconds));
    }
  };

  // Tailer: timestamps each match line when it becomes readable.
  auto tail = [&] {
    const int fd = ::open(out_path.c_str(), O_RDONLY);
    if (fd < 0) return;
    std::string carry;
    char buf[1 << 16];
    for (;;) {
      const bool done = engine_done.load();
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        const double visible = since_t0();
        ConsumeLines(&carry, buf, static_cast<size_t>(n),
                     [&](std::string_view query, int64_t end) {
                       auto it = session.released.find(query);
                       if (it == session.released.end()) {
                         it = session.released
                                  .emplace(std::string(query), 0)
                                  .first;
                       }
                       ++it->second;
                       const size_t index = EventIndexAt(wire.timestamps, end);
                       session.latency_s.push_back(static_cast<float>(
                           visible - schedule.DueSeconds(index)));
                       session.latency_segment.push_back(
                           static_cast<uint16_t>(schedule.SegmentOf(index)));
                     });
        continue;
      }
      if (n == 0 && done) break;
      if (n < 0 && errno != EINTR) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(fd);
  };

  Result<motto::serve::IngestLoopResult> loop =
      motto::serve::IngestLoopResult{};
  Status finished = Status::Ok();
  {
    std::jthread generator(generate);
    std::jthread tailer(tail);
    // Destroyed before the threads join, on error paths too.
    StopOnExit stop(&engine_done);
    motto::serve::IngestOptions ingest;
    ingest.queue_capacity = kQueueCapacity;
    // Runs on the engine thread between frame batches, where ingested() may
    // be read.
    ingest.tick = [&] { ingested.store(core->ingested()); };
    ingest.tick_period_seconds = kBacklogSampleSeconds;
    loop = motto::serve::RunIngestLoop(core, pipe.fds[0], ingest);
    if (loop.ok() && loop->end_seen) {
      finished = core->Finish().status();
    } else if (loop.ok()) {
      finished = motto::InternalError("serve stream ended without kEnd: " +
                                      loop->error);
    }
    session.wall_s = Seconds(start, Clock::now());
    ingested.store(core->ingested());
  }
  MOTTO_RETURN_IF_ERROR(loop.status());
  MOTTO_RETURN_IF_ERROR(finished);
  session.max_queue_depth = loop->max_queue_depth;
  session.dropped = DroppedEvents(setup.metrics.get(), loop->shed);
  SessionOutputSizes(work_dir, &session);
  return session;
}

double LadderRate(int rung) {
  return kReferenceRate * std::pow(kLadderStep, rung);
}

/// The highest rung whose rate is at most `rate` (0 when none is).
int RungAtOrBelow(double rate) {
  if (rate <= kReferenceRate) return 0;
  return static_cast<int>(std::log(rate / kReferenceRate) /
                          std::log(kLadderStep));
}

/// Stairs up the ladder from `first_rung`, kStairSeconds each, until
/// `events` run out; a tail shorter than half a stair joins the last one.
Schedule Climb(uint64_t events, int first_rung) {
  Schedule schedule;
  uint64_t left = events;
  for (int rung = first_rung; left > 0; ++rung) {
    const uint64_t stair =
        static_cast<uint64_t>(LadderRate(rung) * kStairSeconds);
    uint64_t take = std::min(left, stair);
    if (left - take < stair / 2) take = left;
    schedule.AddSegment(take, LadderRate(rung));
    left -= take;
  }
  return schedule;
}

Schedule ClosedLoop(uint64_t events) {
  Schedule schedule;
  schedule.AddSegment(events, 0);
  return schedule;
}

/// Backlog a server that keeps up still shows at its quietest moment: the
/// engine applies queued frames in batches of up to a queue's worth.
double BacklogAllowance(double rate) { return kQueueCapacity + 0.02 * rate; }

struct StairVerdict {
  bool sustained = false;
  double ingest_rate = 0;  ///< Measured events/s applied during the stair.
  double first_backlog = 0;
  double last_backlog = 0;
  double p99_ms = 0;
  double gen_lag_p99_ms = 0;
};

/// The values of `values` whose segment is `k`.
template <typename T>
std::vector<double> InSegment(const std::vector<T>& values,
                              const std::vector<uint16_t>& segment, size_t k) {
  std::vector<double> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (segment[i] == k) out.push_back(static_cast<double>(values[i]));
  }
  return out;
}

/// The quietest backlog sample in [from, to], null when there is none.
const BacklogSample* QuietestSample(const std::vector<BacklogSample>& samples,
                                    double from, double to) {
  const BacklogSample* best = nullptr;
  for (const BacklogSample& s : samples) {
    if (s.t < from || s.t > to) continue;
    if (best == nullptr || s.due - s.ingested < best->due - best->ingested) {
      best = &s;
    }
  }
  return best;
}

/// A stair is sustained when its backlog does not grow (the quietest
/// sample of its last 30% is no higher than that of its first 30%, within
/// 2% of the stair's events), drains to within the allowance, and its
/// matches' p99 latency stays within kLatencyLimitMs. The applied rate is
/// measured between those two quiet samples, where little is in flight.
StairVerdict JudgeStair(const Session& session, const Schedule& schedule,
                        size_t k) {
  StairVerdict verdict;
  const double begin = schedule.SegmentStart(k);
  const double end = schedule.SegmentEnd(k);
  const double window = 0.3 * (end - begin);
  const BacklogSample* first =
      QuietestSample(session.backlog, begin, begin + window);
  const BacklogSample* last =
      QuietestSample(session.backlog, end - window, end);
  verdict.p99_ms = 1e3 * Percentile(InSegment(session.latency_s,
                                               session.latency_segment, k),
                                     99);
  verdict.gen_lag_p99_ms =
      1e3 * Percentile(InSegment(session.gen_lag_s, session.gen_lag_segment, k),
                       99);
  if (first == nullptr || last == nullptr || last->t <= first->t) {
    return verdict;
  }
  verdict.first_backlog = static_cast<double>(first->due - first->ingested);
  verdict.last_backlog = static_cast<double>(last->due - last->ingested);
  verdict.ingest_rate = static_cast<double>(last->ingested - first->ingested) /
                        (last->t - first->t);
  const double rate = schedule.SegmentRate(k);
  const double growth_tolerance =
      0.02 * static_cast<double>(schedule.SegmentEvents(k));
  verdict.sustained =
      verdict.last_backlog <= verdict.first_backlog + growth_tolerance &&
      verdict.last_backlog <= BacklogAllowance(rate) &&
      verdict.p99_ms <= kLatencyLimitMs;
  return verdict;
}

/// The benchmark-side closed loop of the traced run: the same frames
/// through FrameDecoder and ServeCore::OnFrame on one thread, every call a
/// span. Returns the wall time from start to Finish.
motto::Result<double> DirectLoop(const WorkloadSpec& spec,
                                 const InputFiles& files,
                                 const WireInput& wire, uint64_t events,
                                 const std::string& work_dir,
                                 SpanRecorder* recorder,
                                 std::vector<double>* checkpoint_ms,
                                 const Counts& ref, Report* report) {
  std::string bytes = wire.bytes.substr(0, wire.event_end[events - 1]);
  motto::serve::AppendControl(&bytes, motto::serve::FrameType::kEnd);
  MOTTO_RETURN_IF_ERROR(ResetDir(work_dir));
  const Clock::time_point start = Clock::now();
  ScopedSpan root(recorder, "serve.session");
  MOTTO_ASSIGN_OR_RETURN(CoreSetup setup,
                         CreateCore(spec, files, work_dir, recorder));
  motto::serve::ServeCore* core = setup.core.get();
  motto::serve::FrameDecoder decoder;
  motto::serve::Frame frame;
  bool ended = false;
  const bool tracing = recorder->enabled();
  const int32_t decode_name = recorder->Intern("serve.wire_decode");
  const int32_t onframe_name = recorder->Intern("serve.onframe");
  const int32_t checkpoint_name = recorder->Intern("serve.checkpoint");
  for (size_t offset = 0; offset < bytes.size() && !ended;) {
    const size_t chunk = std::min<size_t>(bytes.size() - offset, 1 << 16);
    {
      ScopedSpan span(recorder, "serve.wire_decode");
      decoder.Append(bytes.data() + offset, chunk);
    }
    offset += chunk;
    for (;;) {
      int64_t t = tracing ? recorder->NowNs() : 0;
      auto outcome = decoder.Next(&frame);
      if (tracing) {
        recorder->Add(decode_name, t, recorder->NowNs(), recorder->Current());
      }
      if (outcome == motto::serve::FrameDecoder::Outcome::kError) {
        return motto::InternalError(decoder.error());
      }
      if (outcome == motto::serve::FrameDecoder::Outcome::kNeedMore) break;
      const uint64_t checkpoints = core->checkpoints_taken();
      t = tracing ? recorder->NowNs() : 0;
      MOTTO_ASSIGN_OR_RETURN(bool more, core->OnFrame(frame));
      if (tracing) {
        const int64_t done = recorder->NowNs();
        const bool checkpointed = core->checkpoints_taken() != checkpoints;
        recorder->Add(checkpointed ? checkpoint_name : onframe_name, t, done,
                      recorder->Current());
        if (checkpointed) {
          checkpoint_ms->push_back(static_cast<double>(done - t) / 1e6);
        }
      }
      if (!more) {
        ended = true;
        break;
      }
    }
  }
  if (!ended) return motto::InternalError("wire stream lacks its end frame");
  {
    ScopedSpan span(recorder, "serve.finish");
    MOTTO_RETURN_IF_ERROR(core->Finish().status());
  }
  const double wall = Seconds(start, Clock::now());
  Counts released;
  for (const auto& [sink, count] : core->sink_released()) {
    released[sink] = count;
  }
  report->Check(std::string(spec.name) + " (direct loop)", released, ref,
                events, DroppedEvents(setup.metrics.get(), 0));
  return wall;
}

}  // namespace

Status MeasureServe(const WorkloadSpec& spec, const InputFiles& files,
                    double seconds, bool trace, const std::string& trace_path,
                    const std::string& work_dir, Report* report) {
  MOTTO_ASSIGN_OR_RETURN(WireInput wire, LoadWire(files.wire()));
  const uint64_t events = wire.event_end.size();
  MOTTO_ASSIGN_OR_RETURN(Counts expected, LoadCounts(files.reference(events)));
  const std::string session_dir = work_dir + "/session";

  auto checked = [&](const char* what, const Session& s) {
    report->Check(std::string(spec.name) + " (" + what + ")", s.released,
                  expected, s.events, s.dropped);
    if (!s.exact) {
      report->Flag("B&B hit its budget: the plan is an approximation and may "
                   "differ between runs");
    }
  };

  if (!trace) {
    // Warm-up closed loop, whose rate places the first climb; a session at
    // the reference rate for latency; two closed-loop sessions; then climbs
    // for the rest of the time.
    MOTTO_ASSIGN_OR_RETURN(
        Session warm,
        RunSession(spec, files, wire, ClosedLoop(events), session_dir));
    checked("warm-up", warm);
    // Later server lifetimes start from a heap that earlier ones shaped.
    const double warm_peak_rss_mb = PeakRssMb();
    const Clock::time_point start = Clock::now();
    Schedule reference;
    reference.AddSegment(events, kReferenceRate);
    MOTTO_ASSIGN_OR_RETURN(
        Session at_reference,
        RunSession(spec, files, wire, reference, session_dir));
    checked("reference rate", at_reference);
    const StairVerdict reference_verdict =
        JudgeStair(at_reference, reference, 0);
    if (!reference_verdict.sustained) {
      report->Flag("the reference rate was not sustained");
    }
    std::vector<double> setups = {at_reference.setup_s};
    std::vector<double> walls;
    std::vector<double> rates;
    for (int i = 0; i < 2; ++i) {
      MOTTO_ASSIGN_OR_RETURN(
          Session closed,
          RunSession(spec, files, wire, ClosedLoop(events), session_dir));
      checked("closed loop", closed);
      setups.push_back(closed.setup_s);
      walls.push_back(closed.wall_s);
      rates.push_back(static_cast<double>(closed.events) /
                      (closed.wall_s - closed.setup_s));
    }

    int first_rung = RungAtOrBelow(
        kClimbStartShare * static_cast<double>(warm.events) /
        (warm.wall_s - warm.setup_s));
    int best_rung = -1;
    double sustainable = 0;
    bool last_climb_ran_out = false;
    double longest = 0;
    int climbs = 0;
    for (; climbs < 2 || Seconds(start, Clock::now()) + longest < seconds;
         ++climbs) {
      const Clock::time_point climb_start = Clock::now();
      const Schedule stairs = Climb(events, first_rung);
      MOTTO_ASSIGN_OR_RETURN(Session s,
                             RunSession(spec, files, wire, stairs, session_dir));
      checked("climb", s);
      setups.push_back(s.setup_s);
      // The highest stair sustained before the first one that was not.
      int top_rung = -1;
      double top_applied = 0;
      for (size_t k = 0; k < stairs.segments(); ++k) {
        const StairVerdict v = JudgeStair(s, stairs, k);
        char key[48];
        auto stair_info = [&](const char* field, double value) {
          std::snprintf(key, sizeof(key), "climb%02d.stair%02zu.%s", climbs,
                        k, field);
          report->Info(key, value);
        };
        stair_info("offered_eps", stairs.SegmentRate(k));
        stair_info("applied_eps", v.ingest_rate);
        stair_info("backlog_growth", v.last_backlog - v.first_backlog);
        stair_info("p99_ms", v.p99_ms);
        stair_info("gen_lag_p99_ms", v.gen_lag_p99_ms);
        std::fprintf(stderr,
                     "perfbench: climb %d stair offered %.0f/s applied "
                     "%.0f/s quiet backlog %.0f -> %.0f, p99 %.1f ms, "
                     "generator lag p99 %.2f ms: %s\n",
                     climbs, stairs.SegmentRate(k), v.ingest_rate,
                     v.first_backlog, v.last_backlog, v.p99_ms,
                     v.gen_lag_p99_ms,
                     v.sustained ? "sustained" : "not sustained");
        if (!v.sustained) break;
        top_rung = first_rung + static_cast<int>(k);
        top_applied = v.ingest_rate;
      }
      last_climb_ran_out =
          top_rung == first_rung + static_cast<int>(stairs.segments()) - 1;
      best_rung = std::max(best_rung, top_rung);
      sustainable = std::max(sustainable, top_applied);
      // Next climb: from one rung below the best so far, or lower.
      first_rung = best_rung >= 0 ? std::max(0, best_rung - 1)
                                  : std::max(0, first_rung - 3);
      longest = std::max(longest, Seconds(climb_start, Clock::now()));
    }
    if (best_rung < 0) {
      report->Flag("no climb sustained a stair: sustainable_eps is the rate "
                   "applied at the reference rate");
      sustainable = reference_verdict.ingest_rate;
    }
    if (last_climb_ran_out) {
      report->Flag("the last climb sustained every stair: sustainable_eps "
                   "may be a lower bound");
    }
    const std::vector<double> reference_latency = InSegment(
        at_reference.latency_s, at_reference.latency_segment, 0);
    const Tail tail = HighestSupportedTail(reference_latency);
    if (tail.pct < 99) {
      report->Flag("too few matches at the reference rate to support a p99");
    }
    report->Set("setup_s", Median(setups), "s");
    report->Set("wall_s", Median(walls), "s");
    report->Set("events_per_s", Median(rates), "1/s");
    report->Set("sustainable_eps", sustainable, "1/s");
    report->Set("p50_latency_ms",
                1e3 * Percentile(reference_latency, 50), "ms");
    report->Set("p99_latency_ms",
                1e3 * Percentile(reference_latency, 99), "ms");
    report->Set("peak_rss_mb", warm_peak_rss_mb, "MB");
    report->Info("latency_samples", static_cast<double>(tail.samples));
    report->Info("latency_highest_supported_pct", tail.pct);
    report->Info("sustainable_rung", static_cast<double>(best_rung));
    report->Info("climbs", static_cast<double>(climbs));
    return Status::Ok();
  }

  // Traced run. Open-loop session at the reference rate for the load and
  // queue layers, one closed-loop session for comparison, then direct
  // loops alternating untraced and traced for the rest of the time.
  SpanRecorder off(false);
  SpanRecorder spans(true);
  std::vector<double> checkpoint_ms;
  MOTTO_RETURN_IF_ERROR(DirectLoop(spec, files, wire, events, session_dir,
                                   &off, &checkpoint_ms, expected, report)
                            .status());
  const Clock::time_point start = Clock::now();
  Schedule reference;
  reference.AddSegment(events, kReferenceRate);
  MOTTO_ASSIGN_OR_RETURN(Session open,
                         RunSession(spec, files, wire, reference, session_dir));
  checked("reference rate", open);
  MOTTO_ASSIGN_OR_RETURN(
      Session closed,
      RunSession(spec, files, wire, ClosedLoop(events), session_dir));
  checked("closed loop", closed);

  // The planner's own numbers, from the Optimize call ServeCore::Create
  // makes internally (same workload, statistics and options).
  double optimize_s = 0;
  motto::obs::OptimizerProbe probe;
  motto::OptimizeOutcome outcome;
  {
    spans.set_run(0);
    motto::EventTypeRegistry registry;
    MOTTO_ASSIGN_OR_RETURN(
        std::vector<motto::Query> queries,
        motto::LoadWorkloadFile(files.workload(), &registry));
    motto::StreamStats stats = ScenarioStats(spec.scenario, &registry, &off);
    motto::OptimizerOptions options;
    options.probe = &probe;
    const Clock::time_point t = Clock::now();
    ScopedSpan span(&spans, "motto.optimize");
    motto::Optimizer optimizer(&registry, stats, options);
    MOTTO_ASSIGN_OR_RETURN(outcome, optimizer.Optimize(queries));
    optimize_s = Seconds(t, Clock::now());
  }

  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  double longest = 0;
  while (traced_walls.empty() ||
         Seconds(start, Clock::now()) + longest < seconds) {
    const bool traced_rep = traced_walls.size() < plain_walls.size();
    spans.set_run(static_cast<int32_t>(traced_walls.size() + 1));
    MOTTO_ASSIGN_OR_RETURN(
        double wall, DirectLoop(spec, files, wire, events, session_dir,
                                traced_rep ? &spans : &off, &checkpoint_ms,
                                expected, report));
    longest = std::max(longest, wall);
    (traced_rep ? traced_walls : plain_walls).push_back(wall);
  }

  const LayerTimes layers = SummarizeRuns(
      spans, "serve.session", static_cast<int32_t>(traced_walls.size()));
  double max_backlog = 0;
  for (const BacklogSample& s : open.backlog) {
    max_backlog = std::max(max_backlog, static_cast<double>(s.due) -
                                            static_cast<double>(s.ingested));
  }
  report->Set("workload.ccl_parse_s", layers.Self("workload.ccl_parse"), "s");
  report->Set("event.stats_s", layers.Self("event.stats"), "s");
  report->Set("motto.optimize_s", optimize_s, "s");
  report->Set("motto.sharing_edges",
              static_cast<double>(outcome.sharing_graph.edges.size()), "count");
  report->Set("planner.bnb_expansions",
              static_cast<double>(probe.bnb.expansions), "count");
  report->Set("planner.exact", outcome.exact ? 1 : 0, "bool");
  report->Set("planner.cost_ratio",
              outcome.default_cost > 0
                  ? outcome.planned_cost / outcome.default_cost
                  : 0,
              "ratio");
  report->Set("serve.create_s", layers.Self("serve.create"), "s");
  report->Set("serve.wire_decode_s", layers.Self("serve.wire_decode"), "s");
  report->Set("serve.onframe_s", layers.Self("serve.onframe"), "s");
  report->Set("serve.checkpoint_s",
              layers.Self("serve.checkpoint") + layers.Self("serve.finish"),
              "s");
  report->Set("serve.checkpoint_p99_ms", Percentile(checkpoint_ms, 99), "ms");
  report->Set("serve.checkpoint_bytes",
              static_cast<double>(open.checkpoint_bytes), "bytes");
  report->Set("serve.output_bytes", static_cast<double>(open.output_bytes),
              "bytes");
  report->Set("serve.queue_depth_max",
              static_cast<double>(open.max_queue_depth), "count");
  report->Set("serve.backlog_events", max_backlog, "count");
  report->Set("serve.gen_lag_p99_ms", 1e3 * Percentile(open.gen_lag_s, 99),
              "ms");
  report->Set("trace.coverage", layers.coverage, "ratio");
  report->Set("trace.overhead_frac",
              Median(traced_walls) / Median(plain_walls) - 1, "ratio");
  report->Info("checkpoint_samples", static_cast<double>(checkpoint_ms.size()));
  report->Info("gen_lag_samples", static_cast<double>(open.gen_lag_s.size()));
  report->Info("traced_direct_wall_s", Median(traced_walls));
  report->Info("untraced_direct_wall_s", Median(plain_walls));
  report->Info("open_loop_closed_wall_s", closed.wall_s);
  report->Info("traced_reps", static_cast<double>(traced_walls.size()));
  std::fprintf(stderr,
               "perfbench: traced direct loop %.3f s (untraced %.3f s) vs "
               "pipe + ingest queue closed loop %.3f s\n",
               Median(traced_walls), Median(plain_walls), closed.wall_s);
  if (!trace_path.empty() &&
      !spans.WriteChromeTrace(trace_path, kMaxTraceSpans)) {
    return motto::InternalError("cannot write " + trace_path);
  }
  return Status::Ok();
}

}  // namespace perfbench
