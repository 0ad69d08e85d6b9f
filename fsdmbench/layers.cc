// The traced run's per-layer battery: replays the workload's own inputs
// through the layers a JsonCollection calls internally, each call under a
// span, and derives every per-layer metric from the spans (and from the
// spans the workload's traced phase recorded).

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "dataguide/dataguide.h"
#include "index/search_index.h"
#include "json/dom.h"
#include "json/parser.h"
#include "jsonpath/evaluator.h"
#include "oson/oson.h"
#include "rdbms/parallel.h"
#include "sql/parser.h"
#include "sqljson/json_table.h"
#include "wal/wal.h"

namespace fsdmbench {
namespace {

namespace fs = std::filesystem;
using fsdm::Value;
using fsdm::collection::JsonCollection;
using fsdm::rdbms::OperatorPtr;

constexpr int kSpeedupRepeats = 5;

const char* const kAccessPaths[] = {"indexed-value-scan", "posting-intersect-scan",
                                    "indexed-path-scan",  "imc-filter-scan",
                                    "full-scan",          "sharded-union"};

fsdm::rdbms::Table* BareTable(fsdm::rdbms::Database* db, const std::string& name) {
  fsdm::rdbms::ColumnDef key, doc;
  key.name = "DID";
  key.type = fsdm::rdbms::ColumnType::kNumber;
  doc.name = "JDOC";
  doc.type = fsdm::rdbms::ColumnType::kJson;
  doc.check_is_json = true;
  return Must(db->CreateTable(name, {key, doc}), "create table");
}

double LeafRows(const fsdm::telemetry::OperatorSpan& span) {
  if (span.children.empty()) return static_cast<double>(span.rows_out.load());
  double rows = 0;
  for (const auto& c : span.children) rows += LeafRows(*c);
  return rows;
}

// Times one routed read (EnsureImc first when it is a range over the IMC).
double TimeRead(JsonCollection* coll,
                const std::vector<fsdm::collection::PathPredicate>& preds) {
  const double t0 = NowUs();
  (void)coll->EnsureImc();
  RoutedRead read = RouteAndDrain(*coll, preds);
  if (!read.ok) exit(2);
  return NowUs() - t0;
}

}  // namespace

void RecordRead(const RoutedRead& read) {
  if (!Tracer::Get().enabled() || !read.ok) return;
  Tracer::Read r;
  r.access_paths.push_back(fsdm::collection::AccessPathName(read.plan.access_path));
  for (const auto& c : read.plan.trace.decision.candidates) {
    const size_t arrow = c.access_path.find(" -> ");
    if (c.access_path.rfind("shard ", 0) == 0 && arrow != std::string::npos) {
      r.access_paths.push_back(c.access_path.substr(arrow + 4));
    }
  }
  r.est_rows = read.plan.trace.decision.est_out_rows;
  r.rows = static_cast<double>(read.rows.size());
  r.leaf_rows = read.plan.trace.root != nullptr ? LeafRows(*read.plan.trace.root) : 0;
  Tracer::Get().AddRead(std::move(r));
}

void RunLayerBattery(const Args& args, Workload* workload, Report* report) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(true);
  const LayerInputs in = workload->Layers();
  JsonCollection* coll = workload->collection();
  const double n = static_cast<double>(in.docs.size());

  // Parse, OSON encode / decode / navigate.
  std::vector<std::unique_ptr<fsdm::json::JsonNode>> trees;
  for (const std::string& doc : in.docs) {
    Span span("json.Parse");
    trees.push_back(Must(fsdm::json::Parse(doc), "parse"));
  }
  std::vector<std::string> images;
  double image_bytes = 0;
  for (const auto& tree : trees) {
    Span span("oson.Encode");
    images.push_back(Must(fsdm::oson::Encode(*tree), "encode"));
    image_bytes += static_cast<double>(images.back().size());
  }
  for (const std::string& image : images) {
    Span span("oson.Decode");
    (void)Must(fsdm::oson::Decode(image), "decode");
  }
  const fsdm::jsonpath::PathExpression nav =
      Must(fsdm::jsonpath::PathExpression::Parse(in.navigate_path), "path");
  const fsdm::jsonpath::PathEvaluator eval(&nav);
  size_t navigated = 0;
  {
    // One span over the loop: a navigation is too short to time alone.
    Span span("oson.Navigate(all)");
    for (const std::string& image : images) {
      fsdm::oson::OsonDom dom = Must(fsdm::oson::OsonDom::Open(image), "open");
      navigated += Must(eval.FirstScalar(dom), "navigate").has_value();
    }
    span.set_count(static_cast<double>(navigated));
  }

  // Bare tables: IS JSON alone, then IS JSON plus a search index (with its
  // DataGuide) observing the table.
  fsdm::rdbms::Database db;
  fsdm::rdbms::Table* bare = BareTable(&db, "BARE");
  fsdm::rdbms::Table* indexed = BareTable(&db, "INDEXED");
  std::unique_ptr<fsdm::index::JsonSearchIndex> index =
      Must(fsdm::index::JsonSearchIndex::Create(indexed, "JDOC"), "index");
  for (size_t i = 0; i < in.docs.size(); ++i) {
    Span span("rdbms.Table.Insert");
    (void)Must(bare->Insert({Value::Int64(static_cast<int64_t>(i)), Value::String(in.docs[i])}),
               "insert");
  }
  for (size_t i = 0; i < in.docs.size(); ++i) {
    Span span("rdbms.Table.Insert+index");
    (void)Must(indexed->Insert({Value::Int64(static_cast<int64_t>(i)), Value::String(in.docs[i])}),
               "indexed insert");
  }
  for (const auto& preds : in.reads) {
    for (const auto& p : preds) {
      Span span("index.Probe");
      const std::vector<size_t> rows = p.is_existence() || p.op != fsdm::rdbms::CompareOp::kEq
                                           ? index->DocsWithPath(p.path)
                                           : index->DocsWithValue(p.path, *p.literal);
      span.set_count(static_cast<double>(rows.size()));
    }
  }
  fsdm::dataguide::DataGuide guide;
  for (const auto& tree : trees) {
    fsdm::json::TreeDom dom(tree.get());
    Span span("dataguide.AddDocument");
    (void)Must(guide.AddDocument(dom), "dataguide");
  }

  // A standalone WAL with the workload's fsync policy, then Open on a copy.
  const std::string wal_dir = args.workdir + "/layer-wal";
  const std::string wal_copy = args.workdir + "/layer-wal-copy";
  std::error_code ec;
  fs::remove_all(wal_dir, ec);
  fs::remove_all(wal_copy, ec);
  fsdm::wal::WalOptions wopt;
  wopt.dir = wal_dir;
  wopt.fsync = in.fsync;
  wopt.group_ops = 32;
  uint64_t fsyncs = 0, append_bytes = 0;
  {
    std::unique_ptr<fsdm::wal::Wal> wal = Must(fsdm::wal::Wal::Open(wopt), "wal open").wal;
    for (size_t i = 0; i < images.size(); ++i) {
      Span span("wal.AppendInsert");
      (void)Must(wal->AppendInsert(0, Value::Int64(static_cast<int64_t>(i)), images[i]),
                 "append");
    }
    fsyncs = wal->fsyncs();
    append_bytes = wal->append_bytes();
  }
  fs::copy(wal_dir, wal_copy, fs::copy_options::recursive, ec);
  {
    wopt.dir = wal_copy;
    Span span("wal.Open");
    fsdm::wal::Wal::OpenResult opened = Must(fsdm::wal::Wal::Open(wopt), "wal reopen");
    span.set_count(static_cast<double>(opened.replay.size()));
  }
  if (tracer.Aggregate().count("collection.Create(recover)") == 0) {
    // The workload recovers nothing itself: recover a collection from
    // another copy of that log.
    fs::remove_all(wal_copy, ec);
    fs::copy(wal_dir, wal_copy, fs::copy_options::recursive, ec);
    fsdm::rdbms::Database recover_db;
    fsdm::collection::CollectionOptions options;
    options.wal_dir = wal_copy;
    options.wal_fsync = in.fsync;
    Span span("collection.Create(recover)");
    std::unique_ptr<JsonCollection> recovered =
        Must(JsonCollection::Create(&recover_db, "RECOVER", options), "recover");
    span.set_count(static_cast<double>(recovered->document_count()));
  }
  fs::remove_all(wal_dir, ec);
  fs::remove_all(wal_copy, ec);

  // The workload's collection: consistency check, IMC, the DataGuide's
  // views and a DMDV drain over the OSON images alone. A sharded
  // collection's views are per shard; shard 0 stands for the others.
  JsonCollection* one = coll->shard(0);
  const std::map<std::string, Tracer::Totals> before = tracer.Aggregate();
  if (before.count("collection.CheckConsistency") == 0) {
    Span span("collection.CheckConsistency");
    (void)coll->CheckConsistency();
  }
  if (!coll->imc_valid()) {
    Span span(coll->imc_populated() ? "imc.Repopulate" : "imc.Populate");
    (void)Must(coll->EnsureImc(), "imc");
  }
  fsdm::dataguide::DmdvView root;
  if (before.count("dataguide.Views") == 0) {
    // The workload derives no schema itself: time the view generation
    // alone (virtual columns for every NOBENCH sparse field would make
    // each later scan evaluate a thousand of them).
    Span span("dataguide.Views");
    root = Must(one->CreateViews(), "views").front();
  } else {
    root = Must(one->CreateView("$", "ROOT_RV"), "view");
  }
  {
    Span span("sqljson.DmdvDrain");
    const std::string oson = one->oson_column();
    std::vector<fsdm::rdbms::Row> rows;
    OperatorPtr plan = Must(
        fsdm::sqljson::JsonTable(Must(one->EnsureImc(), "imc")->Scan({one->key_column(), oson}),
                                 oson, fsdm::sqljson::JsonStorage::kOson, root.def),
        "dmdv");
    if (!DrainRows(plan.get(), &rows)) exit(2);
    span.set_count(static_cast<double>(rows.size()));
  }
  if (before.count("report.pass") == 0) {
    // The workload runs no report: one pass of the DMDV drain above plus
    // a SQL count over the navigated path through the hidden OSON column.
    Span pass("report.pass");
    fsdm::sql::SqlSession session(workload->database());
    const std::string table = one->table()->name();
    Must(session.UseOsonFor(table, one->json_column()), "UseOsonFor");
    fsdm::Result<OperatorPtr> plan = [&] {
      Span span("sql.Prepare");
      return session.Prepare("SELECT COUNT(*) FROM " + table + " WHERE JSON_EXISTS(" +
                             one->json_column() + ", '" + in.navigate_path + "')");
    }();
    std::vector<fsdm::rdbms::Row> rows;
    OperatorPtr sql = Must(std::move(plan), "sql");
    Span span("report.drain");
    if (!DrainRows(sql.get(), &rows)) exit(2);
  }
  // parallel.scan_speedup: the first read at 1 worker and at the
  // workload's worker count.
  std::vector<double> one_worker, n_workers;
  auto& pool = fsdm::rdbms::WorkerPool::Global();
  (void)TimeRead(coll, in.reads.front());  // warm
  for (int i = 0; i < kSpeedupRepeats; ++i) {
    pool.Resize(1);
    one_worker.push_back(TimeRead(coll, in.reads.front()));
    pool.Resize(in.workers);
    n_workers.push_back(TimeRead(coll, in.reads.front()));
  }

  // --- Derived metrics -------------------------------------------------------
  const std::map<std::string, Tracer::Totals> a = tracer.Aggregate();
  auto mean_us = [&](const char* name) {
    auto it = a.find(name);
    return it == a.end() ? 0.0 : it->second.MeanUs();
  };
  auto total_us = [&](const char* name) {
    auto it = a.find(name);
    return it == a.end() ? 0.0 : it->second.total_us;
  };
  auto spans = [&](const std::map<std::string, Tracer::Totals>& m, const char* name) {
    auto it = m.find(name);
    return it == m.end() ? size_t{0} : it->second.n;
  };
  report->Metric("json.parse_us_per_doc", mean_us("json.Parse"), "us");
  report->Metric("oson.encode_us_per_doc", mean_us("oson.Encode"), "us");
  report->Metric("oson.decode_us_per_doc", mean_us("oson.Decode"), "us");
  report->Metric("oson.image_bytes_per_doc", image_bytes / n, "bytes");
  report->Metric("oson.navigate_ns_per_doc", total_us("oson.Navigate(all)") * 1e3 / n, "ns");
  const double table_insert = mean_us("rdbms.Table.Insert");
  const double index_maintain = mean_us("rdbms.Table.Insert+index") - table_insert;
  report->Metric("rdbms.table_insert_us_per_doc", table_insert, "us");

  double leaf_rows = 0, out_rows = 0;
  std::vector<double> misestimates;
  std::map<std::string, size_t> paths;
  for (const Tracer::Read& r : tracer.reads()) {
    leaf_rows += r.leaf_rows;
    out_rows += r.rows;
    for (const std::string& p : r.access_paths) ++paths[p];
    if (r.est_rows >= 0) {
      const double e = std::max(1.0, r.est_rows), act = std::max(1.0, r.rows);
      misestimates.push_back(std::max(e / act, act / e));
    }
  }
  report->Metric("rdbms.rows_examined_per_row", out_rows > 0 ? leaf_rows / out_rows : 0,
                 "ratio");
  const size_t passes = spans(a, "report.pass");
  report->Metric("rdbms.drain_ms_per_report",
                 passes ? (total_us("report.drain") +
                           (before.count("report.pass") ? 0 : total_us("sqljson.DmdvDrain"))) /
                              1e3 / static_cast<double>(passes)
                        : 0,
                 "ms");
  report->Metric("parallel.scan_speedup", Median(one_worker) / Median(n_workers), "ratio");
  report->Metric("sqljson.dmdv_drain_ms", mean_us("sqljson.DmdvDrain") / 1e3, "ms");
  report->Metric("sql.prepare_us", mean_us("sql.Prepare"), "us");
  report->Metric("index.maintain_us_per_doc", index_maintain, "us");
  report->Metric("index.postings_per_doc", static_cast<double>(index->posting_count()) / n,
                 "count");
  report->Metric("index.bytes_per_doc", static_cast<double>(index->MemoryBytes()) / n, "bytes");
  report->Metric("index.probe_us", mean_us("index.Probe"), "us");
  report->Metric("dataguide.add_us_per_doc", mean_us("dataguide.AddDocument"), "us");
  report->Metric("dataguide.dg_writes", static_cast<double>(index->dg_write_count()), "count");
  report->Metric("dataguide.paths", static_cast<double>(guide.distinct_path_count()), "count");
  report->Metric("dataguide.views_ms", mean_us("dataguide.Views") / 1e3, "ms");
  report->Metric("stats.misestimate_p50", Median(misestimates), "ratio");
  report->Metric("router.route_us", mean_us("collection.Route"), "us");
  for (const char* p : kAccessPaths) {
    report->Metric(std::string("router.path.") + p, static_cast<double>(paths[p]), "count");
  }
  // What one Insert costs beyond the layers it calls: IS JSON table
  // insert, index/DataGuide upkeep, and with a WAL the OSON image
  // (parse + encode) and its append.
  const bool logged = coll->wal() != nullptr;
  const double layers = table_insert + index_maintain +
                        (logged ? mean_us("json.Parse") + mean_us("oson.Encode") +
                                      mean_us("wal.AppendInsert")
                                : 0);
  report->Metric("collection.glue_us_per_doc", mean_us("collection.Insert") - layers, "us");
  {
    auto it = a.find("collection.Create(recover)");
    report->Metric("collection.recover_us_per_doc",
                   it != a.end() && it->second.count > 0 ? it->second.total_us / it->second.count
                                                         : 0,
                   "us");
  }
  report->Metric("collection.check_consistency_ms", mean_us("collection.CheckConsistency") / 1e3,
                 "ms");
  const size_t populates = spans(a, "imc.Populate") + spans(a, "imc.Repopulate");
  report->Metric("imc.populate_ms",
                 populates ? (total_us("imc.Populate") + total_us("imc.Repopulate")) / 1e3 /
                                 static_cast<double>(populates)
                           : 0,
                 "ms");
  report->Metric("imc.repopulations", static_cast<double>(spans(before, "imc.Repopulate")),
                 "count");
  double imc_bytes = 0;
  for (size_t s = 0; s < coll->shard_count(); ++s) {
    if (coll->shard(s)->imc() != nullptr) {
      imc_bytes += static_cast<double>(coll->shard(s)->imc()->MemoryBytes());
    }
  }
  report->Metric("imc.bytes_per_doc", imc_bytes / static_cast<double>(coll->document_count()),
                 "bytes");
  report->Metric("wal.append_us_per_doc", mean_us("wal.AppendInsert"), "us");
  report->Metric("wal.fsyncs", static_cast<double>(fsyncs), "count");
  report->Metric("wal.append_bytes_per_doc", static_cast<double>(append_bytes) / n, "bytes");
  report->Metric("wal.open_ms", mean_us("wal.Open") / 1e3, "ms");
  tracer.set_enabled(false);
}

}  // namespace fsdmbench
