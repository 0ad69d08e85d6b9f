#include <algorithm>
#include <cmath>

#include "bench.h"

namespace fsdmbench {

using fsdm::collection::JsonCollection;
using fsdm::collection::PathPredicate;

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

void Report::Mismatch(const std::string& what) {
  fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  correct_ = false;
  ++failed_;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics_[i].second.first)
                         ? metrics_[i].second.first
                         : 0.0;
    snprintf(buf, sizeof(buf), "%.17g", v);
    if (i) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

void ReportEndToEnd(const Latencies& ops, const std::vector<double>& write_us,
                    double setup_s, double resident_bytes_per_doc, Report* report) {
  const double n = static_cast<double>(ops.us.size());
  report->Metric("setup_s", setup_s, "s");
  report->Metric("ops_per_cpu_s", ops.busy_us > 0 ? 1e6 * n / ops.busy_us : 0, "ops/s");
  report->Metric("op_p50_cpu_us", Percentile(ops.us, 0.50), "us");
  report->Metric("op_p99_cpu_us", Percentile(ops.us, 0.99), "us");
  report->Metric("ops_per_s", ops.busy_wall_us > 0 ? 1e6 * n / ops.busy_wall_us : 0, "ops/s");
  report->Metric("op_p50_us", Percentile(ops.wall_us, 0.50), "us");
  report->Metric("op_p99_us", Percentile(ops.wall_us, 0.99), "us");
  report->Metric("write_p50_cpu_us", Percentile(write_us, 0.50), "us");
  report->Metric("resident_bytes_per_doc", resident_bytes_per_doc, "bytes");
}

uint64_t ResidentBytes(const JsonCollection& coll) {
  uint64_t bytes = coll.wal() != nullptr ? coll.wal()->MemoryBytes() : 0;
  for (size_t s = 0; s < coll.shard_count(); ++s) {
    const JsonCollection* sh = coll.shard(s);
    bytes += sh->table()->HeapBytes() + sh->dataguide().MemoryBytes() +
             sh->path_stats().MemoryBytes();
    if (sh->search_index() != nullptr) bytes += sh->search_index()->MemoryBytes();
    if (sh->imc() != nullptr) bytes += sh->imc()->MemoryBytes();
  }
  return bytes;
}

double MedianSetupSeconds(int repeats, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = CpuUs();
    setup();
    s.push_back((CpuUs() - t0) / 1e6);
  }
  return Median(s);
}

bool DrainRows(fsdm::rdbms::Operator* op, std::vector<fsdm::rdbms::Row>* rows) {
  fsdm::Status opened = op->Open();
  if (!opened.ok()) {
    fprintf(stderr, "plan open: %s\n", opened.ToString().c_str());
    return false;
  }
  while (true) {
    fsdm::rdbms::Row row;
    fsdm::Result<bool> more = op->Next(&row);
    if (!more.ok()) {
      fprintf(stderr, "plan next: %s\n", more.status().ToString().c_str());
      op->Close();
      return false;
    }
    if (!more.value()) break;
    rows->push_back(std::move(row));
  }
  op->Close();
  return true;
}

RoutedRead RouteAndDrain(const JsonCollection& coll,
                         const std::vector<PathPredicate>& preds) {
  RoutedRead read;
  fsdm::Result<fsdm::collection::RoutedPlan> routed = [&] {
    Span span("collection.Route");
    return coll.Route(preds);
  }();
  if (!routed.ok()) {
    fprintf(stderr, "route: %s\n", routed.status().ToString().c_str());
    return read;
  }
  read.plan = routed.MoveValue();
  read.key_pos = read.plan.plan->schema().IndexOf(coll.key_column());
  if (read.key_pos == fsdm::rdbms::Schema::npos) {
    fprintf(stderr, "routed plan has no %s column\n", coll.key_column().c_str());
    return read;
  }
  Span span("plan.drain");
  read.ok = DrainRows(read.plan.plan.get(), &read.rows);
  span.set_count(static_cast<double>(read.rows.size()));
  RecordRead(read);
  return read;
}

}  // namespace fsdmbench
