// perfbench: the measuring side of the repository benchmark (run.py builds
// it and calls it).
//
//   perfbench gen --workload=W --seed=S --dir=D
//       writes the workload's inputs and reference counts into D
//   perfbench measure --workload=W --dir=D --seconds=T --trace=0|1
//                     --work=DIR [--trace-out=FILE.json]
//       measures for about T seconds and prints one JSON report line
//       (run.py adds 0 for each per-layer metric the workload does not use)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: error: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  const std::string verb = argc > 1 ? argv[1] : "";
  const WorkloadSpec* spec = FindWorkload(Flag(argc, argv, "workload"));
  if (spec == nullptr) return Fail("unknown or missing --workload");
  InputFiles files{Flag(argc, argv, "dir")};
  if (files.dir.empty()) return Fail("missing --dir");

  if (verb == "gen") {
    const std::string seed = Flag(argc, argv, "seed");
    if (seed.empty()) return Fail("missing --seed");
    motto::Status status =
        GenerateInputs(*spec, std::strtoull(seed.c_str(), nullptr, 10), files);
    return status.ok() ? 0 : Fail(status.ToString());
  }
  if (verb != "measure") return Fail("usage: perfbench gen|measure ...");

  const double seconds =
      std::strtod(Flag(argc, argv, "seconds").c_str(), nullptr);
  const bool trace = Flag(argc, argv, "trace") == "1";
  const std::string work = Flag(argc, argv, "work");
  if (seconds <= 0 || work.empty()) return Fail("missing --seconds or --work");
  const std::string trace_out = Flag(argc, argv, "trace-out");

  Report report;
  motto::Status status =
      spec->serve
          ? MeasureServe(*spec, files, seconds, trace, trace_out, work, &report)
          : MeasureBatch(*spec, files, seconds, trace, trace_out, &report);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
