#include <algorithm>
#include <fstream>

#include "bench.h"

namespace fsdmbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint32_t Tracer::Begin(const char* name) {
  SpanRecord r;
  r.id = static_cast<uint32_t>(spans_.size() + 1);
  r.parent = open_.empty() ? 0 : open_.back();
  r.request = open_.empty() ? ++next_request_ : spans_[open_.front() - 1].request;
  r.name = name;
  r.wall_start_us = NowUs();
  r.start_us = CpuUs();
  spans_.push_back(r);
  open_.push_back(r.id);
  return r.id;
}

void Tracer::End(uint32_t id, double count) {
  SpanRecord& r = spans_[id - 1];
  r.end_us = CpuUs();
  r.count = count;
  // Spans close in LIFO order (they are scoped objects).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  // Children's covered time per parent: children of one parent never
  // overlap (single-threaded client), so the covered part is their sum.
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const SpanRecord& r : spans_) {
    if (r.parent != 0) child_us[r.parent] += r.end_us - r.start_us;
  }
  std::map<std::string, Totals> out;
  for (const SpanRecord& r : spans_) {
    Totals& t = out[r.name];
    const double d = r.end_us - r.start_us;
    ++t.n;
    t.total_us += d;
    t.self_us += std::max(0.0, d - child_us[r.id]);
    t.count += r.count;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    snprintf(buf, sizeof(buf),
             "%s\n{\"id\":%u,\"parent\":%u,\"request\":%u,\"name\":\"%s\","
             "\"wall_start_us\":%.3f,\"cpu_start_us\":%.3f,\"cpu_end_us\":%.3f,"
             "\"count\":%.17g}",
             i ? "," : "", r.id, r.parent, r.request, r.name, r.wall_start_us,
             r.start_us, r.end_us, r.count);
    f << buf;
  }
  f << "\n]\n";
  return static_cast<bool>(f);
}

}  // namespace fsdmbench
