// Machine-readable parallel-engine benchmark: sweeps the scan path over a
// thread count ladder, times the parallel index build, and measures the
// compiled-query cache, then writes BENCH_parallel.json with ns/op and
// speedup-vs-1-thread for each configuration.
//
//   ./bench_parallel [--out output.json] [--assert-counters]
//
// --out names the JSON report path (default BENCH_parallel.json in the
// working directory; a bare positional path is accepted for backwards
// compatibility). A pinned-seed reference report is committed at the repo
// root as BENCH_parallel.json; EXPERIMENTS.md documents the refresh step.
//
// --assert-counters re-runs the indexed workload and exits non-zero if the
// ExecStats counters show the index was never probed — the regression that
// timing alone cannot catch (a silent fallback to scan stays correct and
// merely looks slow). It also gates two ratios: batch filtering at least
// 1.5x row mode, and (on hosts with 4+ cores; skipped and recorded
// otherwise) the 4-thread scan no slower than the 1-thread scan.
//
// Environment: XQDB_BENCH_ORDERS overrides the collection size (default
// 4000 documents).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "workload/generator.h"

namespace {

using xqdb::Database;
using xqdb::LoadPaperWorkload;
using xqdb::OrdersWorkloadConfig;
using xqdb::Status;
using xqdb::ThreadPool;
using xqdb::WriteFileAtomic;

constexpr char kScanSql[] =
    "SELECT ordid FROM orders WHERE XMLEXISTS("
    "'$order//lineitem[@price > 995]' passing orddoc as \"order\")";

constexpr char kIndexDdl[] =
    "CREATE INDEX li_price ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE";

int OrdersFromEnv() {
  if (const char* env = std::getenv("XQDB_BENCH_ORDERS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 4000;
}

OrdersWorkloadConfig BenchConfig() {
  OrdersWorkloadConfig config;
  config.num_orders = OrdersFromEnv();
  config.seed = 42;
  return config;
}

std::unique_ptr<Database> LoadDb() {
  auto db = std::make_unique<Database>();
  Status s = LoadPaperWorkload(db.get(), BenchConfig());
  if (!s.ok()) {
    std::fprintf(stderr, "workload load failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  return db;
}

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Best-of-N wall time for one call of `fn` (ns). Best-of beats mean on a
// shared machine: scheduler noise only ever adds time.
template <typename Fn>
double TimeBestNs(int reps, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    double t0 = NowNs();
    fn();
    double dt = NowNs() - t0;
    if (i == 0 || dt < best) best = dt;
  }
  return best;
}

struct Row {
  std::string name;
  size_t threads;
  double ns_per_op;
  double speedup_vs_1;
  std::string note;
  std::string counters;  // ExecStats::ToJson() of a representative run
  std::string lint;      // JSON array of xqlint finding codes for the query
};

/// The xqlint finding codes for one benchmarked SQL query, as a JSON array
/// ("[]" when the query lints clean). A pitfall creeping into a benchmark
/// query shows up in the report next to the timings it distorts.
std::string LintCodesJson(Database* db, const std::string& sql) {
  std::string out = "[";
  auto report = db->LintSql(sql);
  if (report.ok()) {
    bool first = true;
    for (const auto& d : report->diagnostics) {
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + xqdb::DiagCodeName(d.code) + "\"";
    }
  }
  out += "]";
  return out;
}

void AppendJson(std::string* out, const Row& r, bool last) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"threads\": %zu, "
                "\"ns_per_op\": %.0f, \"speedup_vs_1_thread\": %.3f, "
                "\"note\": \"%s\", \"counters\": %s, \"lint\": %s}%s\n",
                r.name.c_str(), r.threads, r.ns_per_op, r.speedup_vs_1,
                r.note.c_str(),
                r.counters.empty() ? "{}" : r.counters.c_str(),
                r.lint.empty() ? "[]" : r.lint.c_str(),
                last ? "" : ",");
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallel.json";
  bool assert_counters = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--assert-counters") {
      assert_counters = true;
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out requires a path\n");
        return 2;
      }
      out_path = argv[++i];
    } else {
      out_path = arg;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<Row> rows;
  double scan4_speedup = 0;
  std::string scan_floor = "not asserted";

  // --- Scan sweep: unindexed XMLEXISTS over the whole collection. -------
  {
    auto db = LoadDb();
    const std::string scan_lint = LintCodesJson(db.get(), kScanSql);
    const std::vector<size_t> ladder = {1, 2, 4, 8};
    double base_ns = 0;
    std::string base_result;
    for (size_t t : ladder) {
      ThreadPool::SetGlobalThreads(t);
      std::string result;
      xqdb::ExecStats stats;
      auto run = [&] {
        auto rs = db->ExecuteSql(kScanSql);
        if (!rs.ok()) {
          std::fprintf(stderr, "scan failed: %s\n",
                       rs.status().ToString().c_str());
          std::abort();
        }
        result = rs->ToString(1u << 20);
        stats = rs->stats;
      };
      run();  // warm-up; also populates the plan cache
      double ns = TimeBestNs(5, run);
      if (t == 1) {
        base_ns = ns;
        base_result = result;
      } else if (result != base_result) {
        std::fprintf(stderr, "DETERMINISM VIOLATION at %zu threads\n", t);
        return 1;
      }
      if (t == 4) scan4_speedup = base_ns / ns;
      rows.push_back({"scan_xmlexists", t, ns, base_ns / ns,
                      "identical results verified vs 1 thread",
                      stats.ToJson(), scan_lint});
      std::printf("scan   threads=%zu  %10.0f ns/op  speedup %.2fx\n", t, ns,
                  base_ns / ns);
    }
  }

  // --- Index build: pattern matching + cast fan out per document. -------
  {
    double base_ns = 0;
    for (size_t t : {size_t{1}, size_t{4}}) {
      ThreadPool::SetGlobalThreads(t);
      xqdb::ExecStats stats;
      // A fresh database per rep — CREATE INDEX is once-per-table.
      double ns = TimeBestNs(3, [&] {
        auto db = LoadDb();
        auto rs = db->ExecuteSql(kIndexDdl);
        if (!rs.ok()) std::abort();
        stats = rs->stats;
      });
      if (t == 1) base_ns = ns;
      rows.push_back({"index_build", t, ns, base_ns / ns,
                      "includes workload load; build is the delta",
                      stats.ToJson(), "[]"});
      std::printf("build  threads=%zu  %10.0f ns/op  speedup %.2fx\n", t, ns,
                  base_ns / ns);
    }
  }

  // --- Compiled-query cache: first execution parses + plans, the rest hit
  // the cache. Indexed point query keeps execution cheap so the front-end
  // savings dominate. --------------------------------------------------
  {
    ThreadPool::SetGlobalThreads(1);
    auto db = LoadDb();
    if (!db->ExecuteSql(kIndexDdl).ok()) std::abort();
    const std::string q =
        "SELECT ordid FROM orders WHERE XMLEXISTS("
        "'$order//lineitem[@price > 999.5]' passing orddoc as \"order\")";
    xqdb::ExecStats cold_stats;
    double cold_ns = TimeBestNs(1, [&] {
      auto rs = db->ExecuteSql(q);
      if (!rs.ok()) std::abort();
      cold_stats = rs->stats;
    });
    xqdb::ExecStats warm_stats;
    double warm_ns = TimeBestNs(20, [&] {
      auto rs = db->ExecuteSql(q);
      if (!rs.ok() || rs->stats.plan_cache_hits != 1) {
        std::fprintf(stderr, "expected plan-cache hit\n");
        std::abort();
      }
      warm_stats = rs->stats;
    });
    const std::string cache_lint = LintCodesJson(db.get(), q);
    rows.push_back({"query_cold_parse_plan", 1, cold_ns, 1.0,
                    "first execution: parse + plan + run",
                    cold_stats.ToJson(), cache_lint});
    rows.push_back({"query_cached_plan", 1, warm_ns, cold_ns / warm_ns,
                    "plan-cache hit verified via ExecStats",
                    warm_stats.ToJson(), cache_lint});
    std::printf("cache  cold %10.0f ns  warm %10.0f ns  (%.2fx)\n", cold_ns,
                warm_ns, cold_ns / warm_ns);
  }

  // --- Batch vs row-at-a-time filtering: the same value-predicate scan
  // with the vectorized kernels on (the default) and forced off
  // (ExecOptions::disable_batch — the XQDB_BATCH=0 path). Results are
  // compared byte-for-byte; the batch path is the tentpole speedup this
  // report pins. --------------------------------------------------------
  double batch_speedup = 0;
  {
    ThreadPool::SetGlobalThreads(4);
    auto db = LoadDb();
    const std::string scan_lint = LintCodesJson(db.get(), kScanSql);
    xqdb::ExecOptions row_mode;
    row_mode.disable_batch = true;
    std::string batch_result;
    std::string row_result;
    xqdb::ExecStats batch_stats;
    xqdb::ExecStats row_stats;
    auto run_mode = [&](const xqdb::ExecOptions& opts, std::string* result,
                        xqdb::ExecStats* stats) {
      auto rs = db->ExecuteSql(kScanSql, opts);
      if (!rs.ok()) {
        std::fprintf(stderr, "batch-mode scan failed: %s\n",
                     rs.status().ToString().c_str());
        std::abort();
      }
      *result = rs->ToString(1u << 20);
      *stats = rs->stats;
    };
    run_mode(row_mode, &row_result, &row_stats);  // warm-up + plan cache
    double row_ns = TimeBestNs(
        5, [&] { run_mode(row_mode, &row_result, &row_stats); });
    double batch_ns = TimeBestNs(5, [&] {
      run_mode(xqdb::ExecOptions{}, &batch_result, &batch_stats);
    });
    if (batch_result != row_result) {
      std::fprintf(stderr, "BATCH/ROW RESULT DIVERGENCE\n");
      return 1;
    }
    batch_speedup = row_ns / batch_ns;
    rows.push_back({"filter_row_at_a_time", 4, row_ns, 1.0,
                    "ExecOptions::disable_batch (the XQDB_BATCH=0 path)",
                    row_stats.ToJson(), scan_lint});
    rows.push_back({"filter_batch", 4, batch_ns, batch_speedup,
                    "vectorized predicate kernels, results verified vs row "
                    "mode",
                    batch_stats.ToJson(), scan_lint});
    std::printf("batch  row %10.0f ns  batch %10.0f ns  (%.2fx)\n", row_ns,
                batch_ns, batch_speedup);
  }

  // --- Index-only aggregate: a covering fn:count over the indexed path is
  // answered from B+Tree entries (docs_scanned = 0); with batch execution
  // off the same query demotes to the evaluator's collection scan. ------
  {
    ThreadPool::SetGlobalThreads(1);
    auto db = LoadDb();
    if (!db->ExecuteSql(kIndexDdl).ok()) std::abort();
    const std::string agg =
        "fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price)";
    xqdb::ExecOptions demoted;
    demoted.disable_batch = true;
    std::string only_result;
    std::string scan_result;
    xqdb::ExecStats only_stats;
    xqdb::ExecStats scan_stats;
    auto run_agg = [&](const xqdb::ExecOptions& opts, std::string* result,
                       xqdb::ExecStats* stats) {
      auto rs = db->ExecuteXQuery(agg, opts);
      if (!rs.ok()) {
        std::fprintf(stderr, "index-only aggregate failed: %s\n",
                     rs.status().ToString().c_str());
        std::abort();
      }
      *result = rs->rows.empty() ? std::string() : rs->rows[0];
      *stats = rs->stats;
    };
    run_agg(demoted, &scan_result, &scan_stats);  // warm-up + plan cache
    double scan_ns =
        TimeBestNs(5, [&] { run_agg(demoted, &scan_result, &scan_stats); });
    double only_ns = TimeBestNs(
        5, [&] { run_agg(xqdb::ExecOptions{}, &only_result, &only_stats); });
    if (only_result != scan_result) {
      std::fprintf(stderr, "INDEX-ONLY/SCAN RESULT DIVERGENCE: %s vs %s\n",
                   only_result.c_str(), scan_result.c_str());
      return 1;
    }
    rows.push_back({"aggregate_collection_scan", 1, scan_ns, 1.0,
                    "fn:count demoted to evaluator scan (disable_batch)",
                    scan_stats.ToJson(), "[]"});
    rows.push_back({"aggregate_index_only", 1, only_ns, scan_ns / only_ns,
                    "covering count from B+Tree entries, zero document "
                    "access, result verified vs scan",
                    only_stats.ToJson(), "[]"});
    std::printf("agg    scan %9.0f ns  index-only %9.0f ns  (%.2fx)\n",
                scan_ns, only_ns, scan_ns / only_ns);
  }

  // --- --assert-counters: an index-eligible workload with the index
  // present MUST report B+Tree probe activity. Timing cannot catch a
  // silent eligibility regression (the scan fallback is still correct),
  // the counters can. --------------------------------------------------
  if (assert_counters) {
    ThreadPool::SetGlobalThreads(1);
    auto db = LoadDb();
    if (!db->ExecuteSql(kIndexDdl).ok()) std::abort();
    xqdb::ExecOptions cold;
    cold.disable_cache = true;
    auto rs = db->ExecuteSql(kScanSql, cold);
    if (!rs.ok()) {
      std::fprintf(stderr, "assert-counters query failed: %s\n",
                   rs.status().ToString().c_str());
      return 1;
    }
    if (rs->stats.index_entries_probed == 0) {
      std::fprintf(stderr,
                   "--assert-counters FAILED: index-eligible query reported "
                   "index_entries_probed=0 (counters: %s)\n",
                   rs->stats.ToJson().c_str());
      return 1;
    }
    std::printf("assert-counters OK: index_entries_probed=%lld "
                "index_docs_returned=%lld\n",
                rs->stats.index_entries_probed, rs->stats.index_docs_returned);

    // The unindexed value-predicate scan must actually engage the batch
    // kernels (batches_executed / batch_rows > 0), and the covering
    // aggregate must be answered index-only: index_only_rows > 0 with
    // docs_scanned = 0 — not one document opened.
    auto unindexed = LoadDb();
    auto bs = unindexed->ExecuteSql(kScanSql, cold);
    if (!bs.ok() || bs->stats.batches_executed == 0 ||
        bs->stats.batch_rows == 0) {
      std::fprintf(stderr,
                   "--assert-counters FAILED: batch kernels did not engage "
                   "(counters: %s)\n",
                   bs.ok() ? bs->stats.ToJson().c_str() : "query failed");
      return 1;
    }
    const std::string agg =
        "fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price)";
    auto as = db->ExecuteXQuery(agg, cold);
    if (!as.ok() || as->stats.index_only_rows == 0 ||
        as->stats.docs_scanned != 0) {
      std::fprintf(stderr,
                   "--assert-counters FAILED: covering aggregate was not "
                   "answered index-only (counters: %s)\n",
                   as.ok() ? as->stats.ToJson().c_str() : "query failed");
      return 1;
    }
    if (batch_speedup < 1.5) {
      std::fprintf(stderr,
                   "--assert-counters FAILED: batch speedup %.2fx < 1.5x\n",
                   batch_speedup);
      return 1;
    }
    std::printf("assert-counters OK: batches_executed=%lld batch_rows=%lld "
                "index_only_rows=%lld batch_speedup=%.2fx\n",
                bs->stats.batches_executed, bs->stats.batch_rows,
                as->stats.index_only_rows, batch_speedup);

    // Intra-query parallelism must not go backwards: with 4 cores to run
    // on, the 4-thread scan may not be slower than the 1-thread scan (a
    // per-node lock on the name-test path made it 0.5-0.7x). No higher
    // floor: the 4-thread speedup swings too widely between runs to pin.
    if (hw >= 4) {
      if (scan4_speedup < 1.0) {
        std::fprintf(stderr,
                     "--assert-counters FAILED: scan_xmlexists at 4 threads "
                     "is %.2fx of 1 thread (< 1.0x)\n",
                     scan4_speedup);
        return 1;
      }
      scan_floor = "pass";
      std::printf("assert-counters OK: scan 4 threads %.2fx of 1 thread\n",
                  scan4_speedup);
    } else {
      scan_floor = "skipped: hardware_concurrency " + std::to_string(hw) +
                   " < 4";
      std::printf("assert-counters SKIP: scan 4-thread floor (%s)\n",
                  scan_floor.c_str());
    }
  }

  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"bench_parallel\",\n";
  json += "  \"orders\": " + std::to_string(OrdersFromEnv()) + ",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  json += "  \"scan_4_thread_floor\": \"" + scan_floor + "\",\n";
  json += "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendJson(&json, rows[i], i + 1 == rows.size());
  }
  json += "  ]\n}\n";

  // Temp-file + rename: a parallel or crashing rerun must never leave a
  // truncated BENCH_parallel.json where CI expects a complete one.
  if (Status st = WriteFileAtomic(out_path, json); !st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 st.message().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
