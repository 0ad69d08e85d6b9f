// `olap` and `mixed`: purchase orders generated as relational rows
// (workloads::PurchaseOrderRows) and inserted as their rendered JSON. The
// rows stay here as a shadow of the collection; every answer the engine
// gives is compared with a plain loop over the shadow at that point of the
// operation sequence.
//
// olap: 1 shard, no WAL, loaded at set-up with DataGuide-inferred virtual
// columns and a populated IMC; read-only rounds of the Table 13 report
// (Q1-Q9), selective routed lookups and routed range reads.
// mixed: 4 shards, no WAL; one client makes one write (insert, replace or
// delete) per kReadsPerWrite reads, the 95:5 read:write mix of YCSB's
// workload B. The reads are the lookups of olap and, last after each
// write, one range read of olap preceded by EnsureImc().

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "rdbms/parallel.h"
#include "sql/parser.h"
#include "sqljson/json_table.h"
#include "workloads/generators.h"

namespace fsdmbench {
namespace {

using fsdm::Rng;
using fsdm::Value;
using fsdm::collection::CollectionOptions;
using fsdm::collection::JsonCollection;
using fsdm::collection::PathPredicate;
using fsdm::rdbms::AggSpec;
using fsdm::rdbms::Col;
using fsdm::rdbms::CompareOp;
using fsdm::rdbms::Lit;
using fsdm::rdbms::OperatorPtr;
using fsdm::rdbms::Row;
using PO = fsdm::workloads::PurchaseOrderRelational;

constexpr size_t kOlapOrders = 6000;
constexpr size_t kOlapLookupsPerRound = 300;
constexpr size_t kOlapRangesPerRound = 30;
constexpr size_t kMixedOrders = 24000;
constexpr size_t kMixedShards = 4;
constexpr size_t kReadsPerWrite = 19;  // the last of them a range read
constexpr size_t kWritesPerRound = 3;  // insert, replace, delete
constexpr const char* kName = "PO";
constexpr const char* kPathId = "$.purchaseOrder.id";
constexpr const char* kPathReference = "$.purchaseOrder.reference";
constexpr const char* kPathRequestor = "$.purchaseOrder.requestor";
constexpr const char* kPathCostcenter = "$.purchaseOrder.costcenter";
constexpr const char* kPathPodate = "$.purchaseOrder.podate";

double Price(const PO::Item& item) { return strtod(item.unitprice.c_str(), nullptr); }

int64_t KeyOf(const Value& v) {
  return v.type() == fsdm::ScalarType::kInt64
             ? v.AsInt64()
             : static_cast<int64_t>(std::llround(v.NumericAsDouble()));
}

double Num(const Value& v) { return v.IsNumeric() ? v.NumericAsDouble() : NAN; }

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

/// The relational shadow: every live order, densely packed so that the
/// reference loops stay cheap.
class Shadow {
 public:
  void Put(PO po) {
    auto [it, inserted] = pos_.try_emplace(po.id, orders_.size());
    if (inserted) {
      orders_.push_back(std::move(po));
    } else {
      orders_[it->second] = std::move(po);
    }
  }
  void Erase(int64_t id) {
    const size_t p = pos_.at(id);
    pos_[orders_.back().id] = p;
    orders_[p] = std::move(orders_.back());
    orders_.pop_back();
    pos_.erase(id);
  }
  const PO& Pick(Rng* rng) const { return orders_[rng->Uniform(orders_.size())]; }
  const std::vector<PO>& orders() const { return orders_; }
  size_t size() const { return orders_.size(); }
  void Clear() {
    orders_.clear();
    pos_.clear();
  }

 private:
  std::vector<PO> orders_;
  std::unordered_map<int64_t, size_t> pos_;  // key -> index in orders_
};

/// One routed read and its reference answer.
struct ReadSpec {
  bool range = false;
  std::vector<PathPredicate> preds;
  std::string label;
};

class Orders : public Workload {
 public:
  Orders(const Args& args, Report* report, bool mixed)
      : args_(args), report_(report), mixed_(mixed) {}
  ~Orders() override {
    coll_.reset();
    db_.reset();
  }

  int SetupRepeats() const override { return 3; }

  void Setup() override {
    session_.reset();
    coll_.reset();
    db_ = std::make_unique<fsdm::rdbms::Database>();
    shadow_.Clear();
    row_of_.clear();
    const size_t n = mixed_ ? kMixedOrders : kOlapOrders;
    Rng rng(args_.seed);
    std::vector<PO> rows;
    rows.reserve(n);
    for (size_t i = 1; i <= n; ++i) {
      rows.push_back(fsdm::workloads::PurchaseOrderRows(&rng, static_cast<int64_t>(i)));
    }
    next_id_ = static_cast<int64_t>(n) + 1;
    load_write_us_.clear();
    CollectionOptions options;
    options.shard_count = mixed_ ? kMixedShards : 1;
    coll_ = Must(JsonCollection::Create(db_.get(), kName, options), "create");
    for (PO& po : rows) {
      std::string text = fsdm::workloads::RenderPurchaseOrder(po);
      const double t0 = CpuUs();
      fsdm::Result<size_t> r = [&] {
        Span span("collection.Insert");
        return coll_->Insert(Value::Int64(po.id), std::move(text));
      }();
      load_write_us_.push_back(CpuUs() - t0);
      row_of_[po.id] = Must(std::move(r), "load");
      shadow_.Put(std::move(po));
    }
    {
      Span span("dataguide.Views");
      Must(coll_->AddInferredVirtualColumns(), "virtual columns");
      if (!mixed_) {
        std::vector<fsdm::dataguide::DmdvView> views = Must(coll_->CreateViews(), "views");
        dmdv_ = views.front().def;  // root view: master columns + items
      }
    }
    if (!mixed_) {
      session_ = std::make_unique<fsdm::sql::SqlSession>(db_.get());
      Must(session_->UseOsonFor(kName, coll_->json_column()), "UseOsonFor");
      for (const auto& c : dmdv_.columns) col_[c.path] = c.name;
      for (const auto& c : dmdv_.nested.at(0).columns) col_["item" + c.path.substr(1)] = c.name;
    }
    {
      Span span("imc.Populate");
      Must(coll_->PopulateImc(), "populate IMC");
    }
    if (mixed_) fsdm::rdbms::WorkerPool::Global().Resize(workers());
    rng_ = Rng(args_.seed ^ 0x9e3779b97f4a7c15ULL);
  }

  void Measure(double seconds, Latencies* ops) override {
    const double t_end = NowUs() + seconds * 1e6;
    do {
      if (mixed_) {
        MixedRound(ops);
      } else {
        OlapRound(ops);
      }
    } while (NowUs() < t_end);
  }

  std::vector<double> SetupWriteUs() const override { return load_write_us_; }

  double ResidentBytesPerDoc() const override {
    return static_cast<double>(ResidentBytes(*coll_)) /
           static_cast<double>(coll_->document_count());
  }
  JsonCollection* collection() override { return coll_.get(); }
  fsdm::rdbms::Database* database() override { return db_.get(); }

  LayerInputs Layers() const override {
    LayerInputs in;
    // The documents as loaded at set-up, re-rendered from the generator.
    Rng rng(args_.seed);
    const size_t n = mixed_ ? kMixedOrders : kOlapOrders;
    for (size_t i = 1; i <= n; ++i) {
      in.docs.push_back(fsdm::workloads::PurchaseOrder(&rng, static_cast<int64_t>(i)));
    }
    in.navigate_path = kPathCostcenter;
    in.fsync = fsdm::wal::FsyncPolicy::kOff;
    Rng pick(args_.seed + 1);
    // A range by key first (parallel.scan_speedup times it), then a
    // reference lookup, a range by month and a conjunction.
    in.reads.push_back(MakeRead(true, 0, &pick).preds);
    in.reads.push_back(MakeRead(false, 0, &pick).preds);
    in.reads.push_back(MakeRead(true, 1, &pick).preds);
    in.reads.push_back(MakeRead(false, 3, &pick).preds);
    in.workers = mixed_ ? workers() : fsdm::rdbms::WorkerPool::Global().worker_count();
    return in;
  }

 private:
  static size_t workers() {
    // The client thread plus the pool never exceed the machine's CPUs.
    const size_t cpus = std::max<size_t>(2, fsdm::rdbms::WorkerPool::DefaultWorkerCount());
    return cpus - 1;
  }

  // --- Routed reads --------------------------------------------------------

  // The n-th lookup or range read of a sequence. Each kind is a cluster
  // of its own in the latency distribution, so the kinds come in a fixed
  // pattern rather than by coin toss: three reference equalities per
  // conjunction puts the median inside one cluster, whatever the seed.
  ReadSpec MakeRead(bool range, size_t n, Rng* rng) const {
    ReadSpec r;
    r.range = range;
    const PO& po = shadow_.Pick(rng);
    if (!range) {
      if (n % 4 != 3) {
        r.preds = {PathPredicate::Compare(kPathReference, CompareOp::kEq,
                                          Value::String(po.reference))};
        r.label = "reference = " + po.reference;
      } else {
        r.preds = {PathPredicate::Compare(kPathRequestor, CompareOp::kEq,
                                          Value::String(po.requestor)),
                   PathPredicate::Compare(kPathCostcenter, CompareOp::kEq,
                                          Value::String(po.costcenter))};
        r.label = "requestor = " + po.requestor + " and costcenter = " + po.costcenter;
      }
      return r;
    }
    if (n % 2 == 0) {
      // About 2% of the orders by key.
      const int64_t width = static_cast<int64_t>(shadow_.size() / 50);
      const int64_t lo = 1 + static_cast<int64_t>(
                                 rng->Uniform(static_cast<uint64_t>(next_id_ - width)));
      r.preds = {PathPredicate::Compare(kPathId, CompareOp::kGe, Value::Int64(lo)),
                 PathPredicate::Compare(kPathId, CompareOp::kLt, Value::Int64(lo + width))};
      r.label = "id in [" + std::to_string(lo) + ", " + std::to_string(lo + width) + ")";
    } else {
      // One calendar month of order dates ("YYYY-MM" <= podate < "YYYY-MM~").
      const std::string month = po.podate.substr(0, 7);
      r.preds = {PathPredicate::Compare(kPathPodate, CompareOp::kGe, Value::String(month)),
                 PathPredicate::Compare(kPathPodate, CompareOp::kLt, Value::String(month + "~"))};
      r.label = "podate in " + month;
    }
    return r;
  }

  // Reference answer: keys of the live orders satisfying `preds`.
  std::pair<size_t, int64_t> Expected(const std::vector<PathPredicate>& preds) const {
    size_t count = 0;
    int64_t key_sum = 0;
    for (const PO& po : shadow_.orders()) {
      bool match = true;
      for (const PathPredicate& p : preds) {
        const std::string& path = p.path;
        int cmp = 0;
        if (path == kPathId) {
          const int64_t lit = p.literal->AsInt64();
          cmp = po.id < lit ? -1 : (po.id > lit ? 1 : 0);
        } else {
          const std::string& field = path == kPathReference   ? po.reference
                                     : path == kPathRequestor ? po.requestor
                                     : path == kPathCostcenter ? po.costcenter
                                                               : po.podate;
          cmp = field.compare(p.literal->AsString());
        }
        switch (p.op) {
          case CompareOp::kEq: match = match && cmp == 0; break;
          case CompareOp::kGe: match = match && cmp >= 0; break;
          case CompareOp::kLt: match = match && cmp < 0; break;
          default: match = false;
        }
      }
      if (match) {
        ++count;
        key_sum += po.id;
      }
    }
    return {count, key_sum};
  }

  void Read(const ReadSpec& spec, Latencies* ops) {
    bool ok = true;
    RoutedRead read;
    {
      OpTimer timer(ops);
      if (spec.range && mixed_) {
        const bool valid = coll_->imc_valid();
        Span span(valid ? "collection.EnsureImc" : "imc.Repopulate");
        ok = coll_->EnsureImc().ok();
      }
      read = RouteAndDrain(*coll_, spec.preds);
    }
    ok = ok && read.ok;
    report_->Op(ok);
    if (!ok) return;
    size_t count = read.rows.size();
    int64_t key_sum = 0;
    for (const Row& row : read.rows) key_sum += KeyOf(row[read.key_pos]);
    const auto [want_count, want_sum] = Expected(spec.preds);
    if (count != want_count || key_sum != want_sum) {
      report_->Mismatch(spec.label + ": " + std::to_string(count) + " rows (key sum " +
                        std::to_string(key_sum) + "), expected " +
                        std::to_string(want_count) + " (" + std::to_string(want_sum) + ")");
    }
  }

  // --- mixed ----------------------------------------------------------------

  void MixedRound(Latencies* ops) {
    // Each write is followed by its lookups and then one range read, so
    // that every range read finds one shard's IMC invalidated and
    // repopulates it.
    size_t lookups = 0;
    for (size_t w = 0; w < kWritesPerRound; ++w) {
      Write(w, ops);
      for (size_t r = 0; r + 1 < kReadsPerWrite; ++r) Read(MakeRead(false, lookups++, &rng_), ops);
      Read(MakeRead(true, w, &rng_), ops);
    }
  }

  void Write(size_t kind, Latencies* ops) {
    const int64_t id = kind == 0 ? next_id_++ : shadow_.Pick(&rng_).id;
    PO po = fsdm::workloads::PurchaseOrderRows(&rng_, id);
    std::string text = kind == 2 ? "" : fsdm::workloads::RenderPurchaseOrder(po);
    const size_t row = kind == 0 ? 0 : row_of_.at(id);
    fsdm::Status st;
    size_t new_row = 0;
    {
      OpTimer timer(ops, /*write=*/true);
      if (kind == 0) {
        Span span("collection.Insert");
        fsdm::Result<size_t> r = coll_->Insert(Value::Int64(id), std::move(text));
        st = r.status();
        if (r.ok()) new_row = r.value();
      } else if (kind == 1) {
        Span span("collection.Replace");
        st = coll_->Replace(row, Value::Int64(id), std::move(text));
      } else {
        Span span("collection.Delete");
        st = coll_->Delete(row);
      }
    }
    report_->Op(st.ok());
    if (!st.ok()) {
      fprintf(stderr, "write %zu on %lld: %s\n", kind, static_cast<long long>(id),
              st.ToString().c_str());
      return;
    }
    if (kind == 0) row_of_[id] = new_row;
    if (kind == 2) {
      shadow_.Erase(id);
      row_of_.erase(id);
    } else {
      shadow_.Put(std::move(po));
    }
    if (coll_->document_count() != shadow_.size()) {
      report_->Mismatch("document_count " + std::to_string(coll_->document_count()) +
                        " after a write, shadow holds " + std::to_string(shadow_.size()));
    }
  }

  // --- olap: the Table 13 report --------------------------------------------

  void OlapRound(Latencies* ops) {
    {
      Span pass("report.pass");
      Report1(ops);
      Report2(ops);
      for (int q = 3; q <= 9; ++q) ReportDmdv(q, ops);
      pass.set_count(9);
    }
    for (size_t i = 0; i < kOlapLookupsPerRound; ++i) Read(MakeRead(false, i, &rng_), ops);
    for (size_t i = 0; i < kOlapRangesPerRound; ++i) Read(MakeRead(true, i, &rng_), ops);
  }

  // Runs one report query: plan construction plus drain, timed as one
  // operation.
  bool Run(const std::function<fsdm::Result<OperatorPtr>()>& make,
           std::vector<Row>* rows, Latencies* ops) {
    bool ok = false;
    {
      OpTimer timer(ops);
      fsdm::Result<OperatorPtr> plan = make();
      ok = plan.ok();
      if (ok) {
        Span span("report.drain");
        ok = DrainRows(plan.value().get(), rows);
        span.set_count(static_cast<double>(rows->size()));
      } else {
        fprintf(stderr, "report plan: %s\n", plan.status().ToString().c_str());
      }
    }
    report_->Op(ok);
    return ok;
  }

  fsdm::Result<OperatorPtr> Sql(const std::string& text) {
    Span span("sql.Prepare");
    return session_->Prepare(text);
  }

  // Q1 (SQL): orders with one reference.
  void Report1(Latencies* ops) {
    const std::string ref = shadow_.Pick(&rng_).reference;
    std::vector<Row> rows;
    if (!Run([&] {
          return Sql("SELECT COUNT(*) FROM PO WHERE JSON_VALUE(JDOC, '" +
                     std::string(kPathReference) + "') = '" + ref + "'");
        }, &rows, ops)) {
      return;
    }
    size_t want = 0;
    for (const PO& po : shadow_.orders()) want += po.reference == ref;
    if (rows.size() != 1 || KeyOf(rows[0][0]) != static_cast<int64_t>(want)) {
      report_->Mismatch("Q1 count for " + ref);
    }
  }

  // Q2 (SQL): orders per cost center, ordered by cost center.
  void Report2(Latencies* ops) {
    std::vector<Row> rows;
    const std::string jv = "JSON_VALUE(JDOC, '" + std::string(kPathCostcenter) + "')";
    if (!Run([&] {
          return Sql("SELECT " + jv + " AS CC, COUNT(*) AS CNT FROM PO GROUP BY " + jv +
                     " ORDER BY 1");
        }, &rows, ops)) {
      return;
    }
    std::map<std::string, int64_t> want;
    for (const PO& po : shadow_.orders()) ++want[po.costcenter];
    bool same = rows.size() == want.size();
    auto it = want.begin();
    for (size_t i = 0; same && i < rows.size(); ++i, ++it) {
      same = rows[i][0].type() == fsdm::ScalarType::kString &&
             rows[i][0].AsString() == it->first && KeyOf(rows[i][1]) == it->second;
    }
    if (!same) report_->Mismatch("Q2 orders per cost center");
  }

  // The DMDV over the IMC's OSON images, with an optional JSON_EXISTS
  // pushed down onto the documents before JSON_TABLE expansion.
  fsdm::Result<OperatorPtr> Dmdv(const std::string& exists_path) const {
    const fsdm::imc::ColumnStore* store = coll_->imc();
    if (store == nullptr) return fsdm::Status::Unavailable("IMC not valid");
    const std::string oson = coll_->oson_column();
    OperatorPtr src = store->Scan({coll_->key_column(), oson});
    if (!exists_path.empty()) {
      FSDM_ASSIGN_OR_RETURN(fsdm::rdbms::ExprPtr exists,
                            fsdm::sqljson::JsonExists(oson, exists_path,
                                                      fsdm::sqljson::JsonStorage::kOson));
      src = fsdm::rdbms::Filter(std::move(src), std::move(exists));
    }
    return fsdm::sqljson::JsonTable(std::move(src), oson, fsdm::sqljson::JsonStorage::kOson,
                                    dmdv_);
  }

  const std::string& C(const std::string& key) const { return col_.at(key); }

  void ReportDmdv(int q, Latencies* ops) {
    const PO& sample = shadow_.Pick(&rng_);
    const PO::Item& item = sample.items[rng_.Uniform(sample.items.size())];
    const std::string part = item.partno;
    std::vector<std::string> parts = {part, shadow_.Pick(&rng_).items[0].partno,
                                      shadow_.Pick(&rng_).items[0].partno};
    const std::string requestor = sample.requestor;
    const std::string cc = C(kPathCostcenter), ref = C(kPathReference),
                      req = C(kPathRequestor), qty = C("item.quantity"),
                      price = C("item.unitprice"), partno = C("item.partno");
    auto wide = [&] {
      std::vector<std::pair<std::string, fsdm::rdbms::ExprPtr>> cols;
      for (const std::string& c : {ref, C("$.purchaseOrder.instructions"), C("item.itemno"),
                                   partno, C("item.description"), qty, price}) {
        cols.emplace_back(c, Col(c));
      }
      return cols;
    };
    // Reference: loop over every live order's items.
    size_t want_rows = 0;
    double want_qty = 0;
    std::map<std::string, double> want_groups;
    std::set<std::string> part_set(parts.begin(), parts.end());
    for (const PO& po : shadow_.orders()) {
      for (const PO::Item& it : po.items) {
        const double p = Price(it);
        bool hit = false;
        switch (q) {
          case 3: if (it.partno == part) want_groups[po.costcenter] += 1; break;
          case 4: hit = po.requestor == requestor && it.quantity > 2 && p > 50; break;
          case 5: hit = part_set.count(it.partno) > 0; break;
          case 6: hit = it.partno == part; break;
          case 7: want_groups[po.costcenter] += static_cast<double>(it.quantity) * p; break;
          case 8: hit = it.quantity > 15 && p > 800; break;
          case 9: hit = true; break;
        }
        if (hit) {
          ++want_rows;
          want_qty += static_cast<double>(it.quantity);
        }
      }
    }
    std::vector<Row> rows;
    auto make = [&]() -> fsdm::Result<OperatorPtr> {
      switch (q) {
        case 3: {  // count per cost center of the items with one part number
          FSDM_ASSIGN_OR_RETURN(OperatorPtr d, Dmdv("$.purchaseOrder.items?(@.partno == \"" +
                                                    part + "\")"));
          return fsdm::rdbms::GroupBy(
              fsdm::rdbms::Filter(std::move(d), fsdm::rdbms::Eq(Col(partno), Lit(Value::String(part)))),
              {Col(cc)}, {"CC"}, {{AggSpec::Kind::kCountStar, nullptr, "CNT", nullptr}});
        }
        case 4: {  // one requestor's larger line items
          FSDM_ASSIGN_OR_RETURN(OperatorPtr d, Dmdv("$.purchaseOrder?(@.requestor == \"" +
                                                    requestor + "\")"));
          auto pred = fsdm::rdbms::And(
              fsdm::rdbms::Eq(Col(req), Lit(Value::String(requestor))),
              fsdm::rdbms::And(fsdm::rdbms::Gt(Col(qty), Lit(Value::Int64(2))),
                               fsdm::rdbms::Gt(Col(price), Lit(Value::Int64(50)))));
          return fsdm::rdbms::Project(fsdm::rdbms::Filter(std::move(d), std::move(pred)), wide());
        }
        case 5: {  // items of three part numbers
          std::string in = "$.purchaseOrder.items?(";
          std::vector<Value> vals;
          for (size_t i = 0; i < parts.size(); ++i) {
            in += (i ? " || " : "") + std::string("@.partno == \"") + parts[i] + "\"";
            vals.push_back(Value::String(parts[i]));
          }
          FSDM_ASSIGN_OR_RETURN(OperatorPtr d, Dmdv(in + ")"));
          return fsdm::rdbms::Project(
              fsdm::rdbms::Filter(std::move(d), fsdm::rdbms::In(Col(partno), vals)), wide());
        }
        case 6: {  // quantity change between consecutive orders of one part
          FSDM_ASSIGN_OR_RETURN(OperatorPtr d, Dmdv("$.purchaseOrder.items?(@.partno == \"" +
                                                    part + "\")"));
          auto order_key = [&] {
            return fsdm::rdbms::Func(
                "SUBSTR", {Col(ref), fsdm::rdbms::Add(fsdm::rdbms::Func(
                                                          "INSTR", {Col(ref), Lit(Value::String("-"))}),
                                                      Lit(Value::Int64(1)))});
          };
          OperatorPtr lagged = fsdm::rdbms::WindowLag(
              fsdm::rdbms::Filter(std::move(d), fsdm::rdbms::Eq(Col(partno), Lit(Value::String(part)))),
              Col(qty), 1, Col(qty), {{order_key(), true}}, "LAG_QTY");
          OperatorPtr diffed = fsdm::rdbms::Project(
              std::move(lagged), {{partno, Col(partno)}, {ref, Col(ref)}, {qty, Col(qty)},
                                  {"DIFFERENCE", fsdm::rdbms::Sub(Col(qty), Col("LAG_QTY"))}});
          return fsdm::rdbms::Sort(std::move(diffed), {{order_key(), false}});
        }
        case 7: {  // order value per cost center
          FSDM_ASSIGN_OR_RETURN(OperatorPtr d, Dmdv(""));
          OperatorPtr agg = fsdm::rdbms::GroupBy(
              std::move(d), {Col(cc)}, {"CC"},
              {{AggSpec::Kind::kSum, fsdm::rdbms::Mul(Col(qty), Col(price)), "TOTAL", nullptr}});
          return fsdm::rdbms::Sort(fsdm::rdbms::Project(std::move(agg), {{"TOTAL", Col("TOTAL")}}),
                                   {{Col("TOTAL"), true}});
        }
        case 8: {  // large, expensive line items
          FSDM_ASSIGN_OR_RETURN(OperatorPtr d, Dmdv("$.purchaseOrder.items?(@.quantity > 15 && "
                                                    "@.unitprice > 800)"));
          auto pred = fsdm::rdbms::And(fsdm::rdbms::Gt(Col(qty), Lit(Value::Int64(15))),
                                       fsdm::rdbms::Gt(Col(price), Lit(Value::Int64(800))));
          return fsdm::rdbms::Project(fsdm::rdbms::Filter(std::move(d), std::move(pred)), wide());
        }
        default: {  // every line item
          FSDM_ASSIGN_OR_RETURN(OperatorPtr d, Dmdv(""));
          return fsdm::rdbms::Project(std::move(d), wide());
        }
      }
    };
    if (!Run(make, &rows, ops)) return;
    const std::string name = "Q" + std::to_string(q);
    if (q == 3 || q == 7) {
      // Q3: (cost center, count) pairs; Q7: the sorted totals alone.
      std::vector<double> got, want;
      for (const Row& r : rows) got.push_back(Num(r[q == 3 ? 1 : 0]));
      for (const auto& [k, v] : want_groups) want.push_back(v);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) same = Close(got[i], want[i]);
      if (q == 3 && same) {
        for (const Row& r : rows) {
          auto it = want_groups.find(r[0].type() == fsdm::ScalarType::kString ? r[0].AsString() : "");
          same = same && it != want_groups.end() && Close(Num(r[1]), it->second);
        }
      }
      if (!same) report_->Mismatch(name + " groups differ from the shadow's");
      return;
    }
    const size_t qty_pos = q == 9 || q == 4 || q == 5 || q == 8 ? 5 : 2;
    double got_qty = 0;
    for (const Row& r : rows) got_qty += Num(r[qty_pos]);
    if (rows.size() != want_rows || !Close(got_qty, want_qty)) {
      report_->Mismatch(name + ": " + std::to_string(rows.size()) + " rows, quantity " +
                        std::to_string(got_qty) + "; expected " + std::to_string(want_rows) +
                        ", " + std::to_string(want_qty));
    }
  }

  const Args args_;
  Report* report_;
  const bool mixed_;
  Shadow shadow_;
  std::unordered_map<int64_t, size_t> row_of_;  // key -> row id
  std::vector<double> load_write_us_;  // CPU time of each insert of the load
  int64_t next_id_ = 1;
  Rng rng_{1};
  fsdm::sqljson::JsonTableDef dmdv_;
  std::map<std::string, std::string> col_;  // path ("item.x" for items) -> column
  std::unique_ptr<fsdm::rdbms::Database> db_;
  std::unique_ptr<JsonCollection> coll_;
  std::unique_ptr<fsdm::sql::SqlSession> session_;
};

}  // namespace

std::unique_ptr<Workload> MakeOlap(const Args& args, Report* report) {
  return std::make_unique<Orders>(args, report, false);
}

std::unique_ptr<Workload> MakeMixed(const Args& args, Report* report) {
  return std::make_unique<Orders>(args, report, true);
}

}  // namespace fsdmbench
