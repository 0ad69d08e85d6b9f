// `ingest`: NOBENCH documents inserted one at a time into a 1-shard
// collection that writes a WAL with group commit and serves no reads; then
// the directory is reopened and the whole log replayed (no checkpoint is
// written before). One round = kDocs inserts + one recovery; every
// recovered collection is checked against the generated texts.

#include <filesystem>

#include "bench.h"
#include "json/parser.h"
#include "workloads/generators.h"

namespace fsdmbench {
namespace {

namespace fs = std::filesystem;
using fsdm::Value;
using fsdm::collection::CollectionOptions;
using fsdm::collection::JsonCollection;
using fsdm::collection::PathPredicate;

constexpr size_t kDocs = 2000;
constexpr size_t kExistenceChecks = 4;
constexpr const char* kName = "NOBENCH";

class Ingest final : public Workload {
 public:
  Ingest(const Args& args, Report* report)
      : args_(args), report_(report), dir_(args.workdir + "/ingest-wal") {
    options_.wal_dir = dir_;
    options_.wal_fsync = fsdm::wal::FsyncPolicy::kGroup;
    options_.wal_group_ops = 32;
  }
  ~Ingest() override {
    coll_.reset();
    db_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void Setup() override {
    coll_.reset();
    db_.reset();
    docs_.clear();
    fsdm::Rng rng(args_.seed);
    for (size_t i = 0; i < kDocs; ++i) {
      docs_.push_back(fsdm::workloads::Nobench(&rng, static_cast<int64_t>(i)));
    }
    // Existence checks on sparse fields drawn from the inputs; expected
    // counts by substring search over the generated texts.
    checks_.clear();
    for (size_t c = 0; c < kExistenceChecks; ++c) {
      const std::string& doc = docs_[c * (kDocs / kExistenceChecks)];
      const size_t at = doc.find("\"sparse_");
      const size_t end = doc.find('"', at + 1);
      const std::string field = doc.substr(at + 1, end - at - 1);
      const std::string needle = "\"" + field + "\":";
      size_t expected = 0;
      for (const std::string& d : docs_) {
        if (d.find(needle) != std::string::npos) ++expected;
      }
      checks_.emplace_back("$." + field, expected);
    }
    OpenFresh();
  }
  int SetupRepeats() const override { return 5; }

  void Measure(double seconds, Latencies* ops) override {
    const double t_end = NowUs() + seconds * 1e6;
    do {
      if (coll_ == nullptr) OpenFresh();
      for (size_t i = 0; i < docs_.size(); ++i) {
        fsdm::Result<size_t> r = [&] {
          OpTimer timer(ops, /*write=*/true);
          Span span("collection.Insert");
          return coll_->Insert(Value::Int64(static_cast<int64_t>(i)), docs_[i]);
        }();
        report_->Op(r.ok());
        if (!r.ok()) {
          fprintf(stderr, "insert %zu: %s\n", i, r.status().ToString().c_str());
        }
      }
      // Close the writer, then recover from the directory alone.
      coll_.reset();
      db_.reset();
      db_ = std::make_unique<fsdm::rdbms::Database>();
      fsdm::Result<std::unique_ptr<JsonCollection>> rec = [&] {
        OpTimer timer(ops);
        Span span("collection.Create(recover)");
        fsdm::Result<std::unique_ptr<JsonCollection>> c =
            JsonCollection::Create(db_.get(), kName, options_);
        if (c.ok()) span.set_count(static_cast<double>(c.value()->document_count()));
        return c;
      }();
      report_->Op(rec.ok());
      if (!rec.ok()) {
        fprintf(stderr, "recovery: %s\n", rec.status().ToString().c_str());
        db_.reset();
        continue;
      }
      recovered_ = rec.MoveValue();
      CheckRecovered();
      // The next round starts from an empty directory; the recovered
      // collection stays alive until then for the resident-bytes reading.
    } while (NowUs() < t_end);
  }

  double ResidentBytesPerDoc() const override {
    const JsonCollection* c = recovered_ != nullptr ? recovered_.get() : coll_.get();
    if (c == nullptr || c->document_count() == 0) return 0;
    return static_cast<double>(ResidentBytes(*c)) /
           static_cast<double>(c->document_count());
  }

  JsonCollection* collection() override {
    return recovered_ != nullptr ? recovered_.get() : coll_.get();
  }

  fsdm::rdbms::Database* database() override { return db_.get(); }

  LayerInputs Layers() const override {
    LayerInputs in;
    in.docs = docs_;
    in.navigate_path = "$.nested_obj.num";
    in.fsync = *options_.wal_fsync;
    for (const auto& [path, expected] : checks_) {
      in.reads.push_back({PathPredicate::Exists(path)});
    }
    return in;
  }

 private:
  void OpenFresh() {
    recovered_.reset();
    coll_.reset();
    db_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    db_ = std::make_unique<fsdm::rdbms::Database>();
    coll_ = Must(JsonCollection::Create(db_.get(), kName, options_), "create");
  }

  // Untimed: the recovered collection against the generated inputs.
  void CheckRecovered() {
    const JsonCollection& c = *recovered_;
    if (c.document_count() != docs_.size()) {
      report_->Mismatch("recovered " + std::to_string(c.document_count()) +
                        " documents, acknowledged " +
                        std::to_string(docs_.size()));
    }
    const fsdm::rdbms::Table* t = c.table();
    size_t key_pos = 0, json_pos = 0;
    const std::vector<size_t>& phys = t->physical_columns();
    for (size_t i = 0; i < phys.size(); ++i) {
      if (t->columns()[phys[i]].name == c.key_column()) key_pos = i;
      if (t->columns()[phys[i]].name == c.json_column()) json_pos = i;
    }
    std::vector<bool> seen(docs_.size(), false);
    for (size_t row = 0; row < t->row_count(); ++row) {
      if (!t->IsLive(row)) continue;
      const fsdm::rdbms::Row& r = t->StoredRow(row);
      const int64_t key = r[key_pos].type() == fsdm::ScalarType::kInt64
                              ? r[key_pos].AsInt64()
                              : -1;
      if (key < 0 || static_cast<size_t>(key) >= docs_.size() || seen[key]) {
        report_->Mismatch("recovered unexpected key " + std::to_string(key));
        continue;
      }
      seen[key] = true;
      auto got = fsdm::json::Parse(r[json_pos].AsString());
      auto want = fsdm::json::Parse(docs_[key]);
      if (!got.ok() || !want.ok() || !got.value()->Equals(*want.value())) {
        report_->Mismatch("recovered document " + std::to_string(key) +
                          " differs from its generated text");
      }
    }
    for (const auto& [path, expected] : checks_) {
      RoutedRead read = RouteAndDrain(c, {PathPredicate::Exists(path)});
      report_->Op(read.ok);
      if (read.ok && read.rows.size() != expected) {
        report_->Mismatch("exists " + path + ": " +
                          std::to_string(read.rows.size()) + " rows, expected " +
                          std::to_string(expected));
      }
    }
    fsdm::collection::ConsistencyReport cr = [&] {
      Span span("collection.CheckConsistency");
      return c.CheckConsistency();
    }();
    if (!cr.consistent) report_->Mismatch("recovered: " + cr.ToString());
  }

  const Args args_;
  Report* report_;
  const std::string dir_;
  CollectionOptions options_;
  std::vector<std::string> docs_;
  std::vector<std::pair<std::string, size_t>> checks_;
  // Declared before the collections so that it outlives them.
  std::unique_ptr<fsdm::rdbms::Database> db_;
  std::unique_ptr<JsonCollection> coll_;
  std::unique_ptr<JsonCollection> recovered_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(const Args& args, Report* report) {
  return std::make_unique<Ingest>(args, report);
}

}  // namespace fsdmbench
