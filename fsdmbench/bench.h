#ifndef FSDMBENCH_BENCH_H_
#define FSDMBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result line, latency statistics, and the in-memory span recorder the
// traced run uses. See README.md for the workloads and metrics.

#include <chrono>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "rdbms/executor.h"

namespace fsdmbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for WAL segments and the span file; run.py points
  /// it inside the checkout's build directory.
  std::string workdir = ".";
};

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in microseconds. Half of
/// the end-to-end timings use it: on a shared virtual host the hypervisor
/// steals the CPU for stretches that moved the wall time of one run by up
/// to 2x, while the CPU time the program itself spends (in user and kernel
/// mode, on every thread it runs) stays put. The other half are wall time,
/// which alone sees what the CPU time cannot: parallel speedup, and waits
/// on fsync or on locks.
inline double CpuUs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// The value of `r`; a failure (set-up or replay the run cannot go on
/// without) ends the run with exit code 2 and no result line.
template <typename T>
T Must(fsdm::Result<T> r, const char* what) {
  if (!r.ok()) {
    fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
    exit(2);
  }
  return r.MoveValue();
}
inline void Must(const fsdm::Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    exit(2);
  }
}

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// What one run prints as its last line: operation counts, whether every
/// checked answer matched its independent reference, and the metrics.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  /// Counts one client operation; a failed one also makes the run exit
  /// non-zero.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a wrong answer: the operation that produced it is already
  /// counted; this marks it failed and the run incorrect.
  void Mismatch(const std::string& what);
  bool correct() const { return correct_ && failed_ == 0; }
  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// The closed-loop client's operation log: the CPU time (CpuUs) and the
/// wall time of each operation, in microseconds, and the CPU time of the
/// writes (insert, replace, delete) among them.
struct Latencies {
  std::vector<double> us;  // CPU
  std::vector<double> wall_us;
  std::vector<double> write_us;  // CPU, writes only
  double busy_us = 0;  // CPU inside operations
  double busy_wall_us = 0;
  void Add(double cpu, double wall, bool write) {
    us.push_back(cpu);
    wall_us.push_back(wall);
    if (write) write_us.push_back(cpu);
    busy_us += cpu;
    busy_wall_us += wall;
  }
};

/// Times one client operation into a Latencies log.
class OpTimer {
 public:
  explicit OpTimer(Latencies* log, bool write = false)
      : log_(log), write_(write), cpu0_(CpuUs()), wall0_(NowUs()) {}
  ~OpTimer() { log_->Add(CpuUs() - cpu0_, NowUs() - wall0_, write_); }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  Latencies* log_;
  bool write_;
  double cpu0_;
  double wall0_;
};

/// Adds the end-to-end metrics every workload reports. `write_us` is the
/// CPU time of the writes the write_p50_cpu_us metric is taken over.
void ReportEndToEnd(const Latencies& ops, const std::vector<double>& write_us,
                    double setup_s, double resident_bytes_per_doc, Report* report);

/// Sum of the public memory accessors of every maintained structure of
/// the collection (all shards): table heap, index postings, DataGuide,
/// path statistics, IMC (when populated) and the WAL writer.
uint64_t ResidentBytes(const fsdm::collection::JsonCollection& coll);

// --- Tracing ----------------------------------------------------------------

/// One recorded span. Spans of one client operation share `request`.
/// Start and end are process CPU time (CpuUs); the wall-clock start is
/// kept for timelines.
struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint32_t request = 0;
  const char* name = "";
  double wall_start_us = 0;
  double start_us = 0;
  double end_us = 0;
  double count = 0;  // work done inside the span (rows, bytes, ...)
};

/// In-memory span recorder. Disabled (every call a branch) unless the
/// traced run enables it; spans are written out once, when the run ends.
class Tracer {
 public:
  static Tracer& Get();
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  uint32_t Begin(const char* name);
  void End(uint32_t id, double count);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Number, total duration and total self time (duration minus the part
  /// of it covered by child spans) of the spans called `name`.
  struct Totals {
    size_t n = 0;
    double total_us = 0;
    double self_us = 0;
    double count = 0;
    double MeanUs() const { return n ? total_us / n : 0; }
  };
  std::map<std::string, Totals> Aggregate() const;

  /// One routed read seen while tracing: the access paths the router
  /// chose (on a sharded collection: sharded-union plus each shard's
  /// own), its estimated and actual output rows, and the rows the plan's
  /// leaves read (from the routed plan's own operator trace).
  struct Read {
    std::vector<std::string> access_paths;
    double est_rows = 0;
    double rows = 0;
    double leaf_rows = 0;
  };
  void AddRead(Read r) { reads_.push_back(std::move(r)); }
  const std::vector<Read>& reads() const { return reads_; }

  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Read> reads_;
  bool enabled_ = false;
  uint32_t next_request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<uint32_t> open_;  // stack of open span ids
};

/// RAII span around one call into a layer's public function.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::Get().enabled()) id_ = Tracer::Get().Begin(name);
  }
  ~Span() {
    if (id_ != 0) Tracer::Get().End(id_, count_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_count(double c) { count_ = c; }

 private:
  uint32_t id_ = 0;
  double count_ = 0;
};

// --- Plans -----------------------------------------------------------------

/// Drains a plan into rows. Returns false (with the error on stderr) when
/// the plan fails.
bool DrainRows(fsdm::rdbms::Operator* op, std::vector<fsdm::rdbms::Row>* rows);

/// Routes `preds`, drains the plan inside a "plan.drain" span, and returns
/// the rows plus the routed plan (kept alive so its trace can be read).
struct RoutedRead {
  bool ok = false;
  std::vector<fsdm::rdbms::Row> rows;
  fsdm::collection::RoutedPlan plan;
  size_t key_pos = 0;  // position of the key column in `rows`
};
RoutedRead RouteAndDrain(const fsdm::collection::JsonCollection& coll,
                         const std::vector<fsdm::collection::PathPredicate>& preds);
/// While tracing, logs the routed read's access path, estimated and
/// actual rows, and the rows its plan's leaves read.
void RecordRead(const RoutedRead& read);

// --- Workloads ---------------------------------------------------------------

/// Inputs of the per-layer replays: the workload's own documents and reads.
struct LayerInputs {
  std::vector<std::string> docs;
  /// Path the oson.navigate replay reads ("$.a.b").
  std::string navigate_path;
  /// Fsync policy of the workload's WAL (kOff when it runs without one).
  fsdm::wal::FsyncPolicy fsync = fsdm::wal::FsyncPolicy::kOff;
  /// A few of the workload's routed reads: the index.probe replay probes
  /// their predicates, parallel.scan_speedup times the first one.
  std::vector<std::vector<fsdm::collection::PathPredicate>> reads;
  /// Worker count the workload runs with.
  size_t workers = 1;
};

/// One workload: set-up, then whole rounds of closed-loop client
/// operations, each answer checked against a reference computed apart
/// from the engine (outside the timed sections).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's state from scratch (generation, load, derived
  /// schema, IMC); repeatable, each call replacing the previous state.
  virtual void Setup() = 0;
  /// How many set-ups an untraced run times (setup_s is their median).
  virtual int SetupRepeats() const = 0;
  /// Runs whole rounds until `seconds` of wall time have passed (at least
  /// one), appending one latency per operation.
  virtual void Measure(double seconds, Latencies* ops) = 0;
  /// CPU time of the inserts of the last set-up's load, for a workload
  /// that makes no writes in its measured rounds.
  virtual std::vector<double> SetupWriteUs() const { return {}; }
  /// Resident bytes per live document at this point.
  virtual double ResidentBytesPerDoc() const = 0;
  /// The live collection the per-layer battery inspects, and the
  /// database holding its tables.
  virtual fsdm::collection::JsonCollection* collection() = 0;
  virtual fsdm::rdbms::Database* database() = 0;
  virtual LayerInputs Layers() const = 0;
};

std::unique_ptr<Workload> MakeIngest(const Args& args, Report* report);
std::unique_ptr<Workload> MakeOlap(const Args& args, Report* report);
std::unique_ptr<Workload> MakeMixed(const Args& args, Report* report);

/// Replays the workload's inputs through the layers a collection calls
/// internally (parse, OSON encode/decode/navigate, bare table with IS
/// JSON, bare table with a search index, DataGuide, standalone WAL, view
/// generation and a DMDV drain) under spans, then adds every per-layer
/// metric, derived from those spans and from the ones the workload's
/// traced phase recorded.
void RunLayerBattery(const Args& args, Workload* workload, Report* report);

/// Median process CPU seconds of `repeats` calls of `setup`; the state of
/// the last call is what the run goes on with.
double MedianSetupSeconds(int repeats, const std::function<void()>& setup);

}  // namespace fsdmbench

#endif  // FSDMBENCH_BENCH_H_
