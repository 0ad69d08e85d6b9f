// fsdmbench: end-to-end benchmark of the FSDM document store, driven the
// way an application drives it (one process, one closed-loop client).
//
//   fsdmbench --workload ingest|olap|mixed --seed N --seconds S --trace 0|1
//             [--workdir DIR]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics; traced runs (--trace 1) report the per-layer metrics, derived
// from spans recorded around every call the benchmark makes into a layer,
// and write the spans to DIR/spans-<workload>-<seed>.json. The exit code is
// 0 only when every operation succeeded and every answer matched its
// reference.

#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench.h"

namespace {

using fsdmbench::Args;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--workdir") {
      args->workdir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsdmbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: fsdmbench --workload ingest|olap|mixed --seed N --seconds S "
            "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  Report report;
  std::unique_ptr<Workload> w;
  if (args.workload == "ingest") {
    w = MakeIngest(args, &report);
  } else if (args.workload == "olap") {
    w = MakeOlap(args, &report);
  } else if (args.workload == "mixed") {
    w = MakeMixed(args, &report);
  } else {
    fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (!args.trace) {
    const double setup_s = MedianSetupSeconds(w->SetupRepeats(), [&] { w->Setup(); });
    Latencies ops;
    w->Measure(args.seconds, &ops);
    ReportEndToEnd(ops, ops.write_us.empty() ? w->SetupWriteUs() : ops.write_us, setup_s,
                   w->ResidentBytesPerDoc(), &report);
    printf("%zu operations, %zu writes\n", ops.us.size(), ops.write_us.size());
  } else {
    // Set-up is traced. The run then alternates one untraced and one
    // traced round, so that both kinds of round meet the same state of the
    // collection and the same neighbours, and give the tracing overhead.
    Tracer& tracer = Tracer::Get();
    tracer.set_enabled(true);
    w->Setup();
    Latencies untraced, traced;
    const double t_end = NowUs() + args.seconds * 1e6;
    do {
      tracer.set_enabled(false);
      w->Measure(0, &untraced);
      tracer.set_enabled(true);
      w->Measure(0, &traced);
    } while (NowUs() < t_end);
    tracer.set_enabled(false);
    RunLayerBattery(args, w.get(), &report);
    const double rate_untraced = 1e6 * static_cast<double>(untraced.us.size()) / untraced.busy_us;
    const double rate_traced = 1e6 * static_cast<double>(traced.us.size()) / traced.busy_us;
    report.Metric("trace.overhead_pct", 100.0 * (rate_untraced / rate_traced - 1.0), "%");
    printf("ops per CPU second untraced %.1f traced %.1f; op p50 CPU untraced %.1f us "
           "traced %.1f us\n",
           rate_untraced, rate_traced, Percentile(untraced.us, 0.5), Percentile(traced.us, 0.5));
    const std::string path = args.workdir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.WriteJson(path)) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    printf("spans: %zu written to %s\n", tracer.spans().size(), path.c_str());
  }
  w.reset();
  printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
