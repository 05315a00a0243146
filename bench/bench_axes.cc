// Machine-readable axis-evaluation benchmark: times descendant and
// ancestor queries over deep-recursion and wide-fanout documents with the
// pre/post interval structural joins on vs. off (recursive tree walk),
// then writes BENCH_structural.json with ns/op and speedup-vs-recursive
// per configuration.
//
//   ./bench_axes [--out output.json] [--assert-counters] [--assert-speedup N]
//
// --out names the JSON report path (default BENCH_structural.json in the
// working directory). The committed copy at the repo root is the pinned
// reference; EXPERIMENTS.md documents the refresh step.
//
// --assert-counters exits non-zero unless an EXPLAIN ANALYZE'd //a//b
// existence query over the indexed collection reports docs_scanned = 0 —
// the path-summary probe answered it without opening a single document —
// and the structural runs report structural_join_emitted > 0. Timing
// cannot catch either regression: the recursive walk and a blind scan
// stay correct and merely look slow.
//
// --assert-speedup N additionally requires the deep-document descendant
// speedup to reach N x (used to pin the paper-motivated 5x floor on
// release hardware; CI smoke runs without it — shared runners are too
// noisy for timing gates).
//
// Environment: XQDB_BENCH_AXES_DOCS overrides the per-shape document
// count (default 120), XQDB_BENCH_AXES_DEPTH the chain depth (default 96,
// floor 64 — the acceptance shape).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "xquery/structural_join.h"

namespace {

using xqdb::Database;
using xqdb::ExecOptions;
using xqdb::Status;
using xqdb::ThreadPool;

int IntFromEnv(const char* name, int fallback, int floor) {
  if (const char* env = std::getenv(name)) {
    int v = std::atoi(env);
    if (v > 0) return std::max(v, floor);
  }
  return fallback;
}

int DocsPerShape() { return IntFromEnv("XQDB_BENCH_AXES_DOCS", 120, 1); }
int ChainDepth() { return IntFromEnv("XQDB_BENCH_AXES_DEPTH", 96, 64); }

/// <doc><wrap><wrap>...<leaf>i</leaf>...</wrap></wrap></doc> — a chain of
/// `depth` wrap elements. Every wrap matches the outer step of
/// //wrap//leaf, so the recursive walk re-scans the same tail once per
/// level (O(depth^2) node visits) while the structural join merges the
/// nested intervals into one run (O(depth)).
std::string DeepChainDoc(int depth, int i) {
  std::string xml = "<doc>";
  for (int d = 0; d < depth; ++d) xml += "<wrap>";
  xml += "<leaf>" + std::to_string(i) + "</leaf>";
  for (int d = 0; d < depth; ++d) xml += "</wrap>";
  xml += "</doc>";
  return xml;
}

/// <doc><wrap><item><leaf>..</leaf></item> x fanout</wrap></doc> — one
/// shallow level, many siblings: the structural join's win here is the
/// sort-merge dedup, not interval merging.
std::string WideFanoutDoc(int fanout, int i) {
  std::string xml = "<doc><wrap>";
  for (int k = 0; k < fanout; ++k) {
    xml += "<item><leaf>" + std::to_string(i * 1000 + k) + "</leaf></item>";
  }
  xml += "</wrap></doc>";
  return xml;
}

std::unique_ptr<Database> LoadDb(const char* shape) {
  auto db = std::make_unique<Database>();
  auto exec = [&](const std::string& sql) {
    auto rs = db->ExecuteSql(sql);
    if (!rs.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   rs.status().ToString().c_str());
      std::abort();
    }
  };
  exec("CREATE TABLE axes (id INTEGER, doc XML)");
  const int n = DocsPerShape();
  for (int i = 0; i < n; ++i) {
    std::string xml = std::string(shape) == "deep"
                          ? DeepChainDoc(ChainDepth(), i)
                          : WideFanoutDoc(64, i);
    exec("INSERT INTO axes VALUES (" + std::to_string(i) + ", '" + xml +
         "')");
  }
  return db;
}

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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
  double ns_per_op;
  double speedup_vs_recursive;
  std::string note;
  std::string counters;
};

void AppendJson(std::string* out, const Row& r, bool last) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"ns_per_op\": %.0f, "
                "\"speedup_vs_recursive\": %.3f, \"note\": \"%s\", "
                "\"counters\": %s}%s\n",
                r.name.c_str(), r.ns_per_op, r.speedup_vs_recursive,
                r.note.c_str(),
                r.counters.empty() ? "{}" : r.counters.c_str(),
                last ? "" : ",");
  *out += buf;
}

/// Times `query` with structural joins on and off against one database,
/// verifying both evaluations agree, and appends a row pair. Returns the
/// structural speedup.
double BenchPair(Database* db, const std::string& shape,
                 const std::string& axis, const std::string& query,
                 std::vector<Row>* rows, xqdb::ExecStats* structural_stats) {
  ExecOptions structural;
  structural.disable_cache = true;
  ExecOptions recursive = structural;
  recursive.disable_structural = true;

  std::string structural_text;
  std::string recursive_text;
  xqdb::ExecStats s_stats;
  xqdb::ExecStats r_stats;
  auto run = [&](const ExecOptions& opts, std::string* text,
                 xqdb::ExecStats* stats) {
    auto r = db->ExecuteXQuery(query, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
    text->clear();
    for (const std::string& row : r->rows) *text += row + "\n";
    *stats = r->stats;
  };

  run(structural, &structural_text, &s_stats);  // warm-up
  run(recursive, &recursive_text, &r_stats);
  if (structural_text != recursive_text) {
    std::fprintf(stderr, "RESULT MISMATCH on %s/%s\n", shape.c_str(),
                 axis.c_str());
    std::abort();
  }
  double s_ns =
      TimeBestNs(5, [&] { run(structural, &structural_text, &s_stats); });
  double r_ns =
      TimeBestNs(5, [&] { run(recursive, &recursive_text, &r_stats); });
  double speedup = r_ns / s_ns;
  rows->push_back({axis + "_" + shape + "_structural", s_ns, speedup,
                   "identical results verified vs recursive walk",
                   s_stats.ToJson()});
  rows->push_back({axis + "_" + shape + "_recursive", r_ns, 1.0,
                   "interval joins disabled (ExecOptions.disable_structural)",
                   r_stats.ToJson()});
  std::printf("%-10s %-5s structural %12.0f ns  recursive %12.0f ns  %.2fx\n",
              axis.c_str(), shape.c_str(), s_ns, r_ns, speedup);
  if (structural_stats != nullptr) *structural_stats = s_stats;
  return speedup;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_structural.json";
  bool assert_counters = false;
  double assert_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--assert-counters") {
      assert_counters = true;
    } else if (arg == "--assert-speedup") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--assert-speedup requires a factor\n");
        return 2;
      }
      assert_speedup = std::atof(argv[++i]);
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

  // Single-threaded: the bench compares evaluation strategies, not
  // parallelism.
  ThreadPool::SetGlobalThreads(1);

  const std::string kDescendant =
      "db2-fn:xmlcolumn('AXES.DOC')//wrap//leaf";
  const std::string kAncestor =
      "for $l in db2-fn:xmlcolumn('AXES.DOC')//leaf "
      "return count($l/ancestor::wrap)";

  std::vector<Row> rows;
  double deep_speedup = 0;
  xqdb::ExecStats deep_structural_stats;
  {
    auto db = LoadDb("deep");
    deep_speedup = BenchPair(db.get(), "deep", "descendant", kDescendant,
                             &rows, &deep_structural_stats);
    BenchPair(db.get(), "deep", "ancestor", kAncestor, &rows, nullptr);
  }
  {
    auto db = LoadDb("wide");
    BenchPair(db.get(), "wide", "descendant", kDescendant, &rows, nullptr);
    BenchPair(db.get(), "wide", "ancestor", kAncestor, &rows, nullptr);
  }

  // --- //a//b existence answered by the strong DataGuide: with an index
  // present but ineligible for the structural predicate, the planner must
  // fall through to the path-summary probe and open zero documents. -----
  std::string summary_counters = "{}";
  int exit_code = 0;
  {
    auto db = LoadDb("deep");
    auto ddl = db->ExecuteSql(
        "CREATE INDEX leaf_val ON axes(doc) "
        "USING XMLPATTERN '//meta/@k' AS SQL DOUBLE");
    if (!ddl.ok()) std::abort();
    const std::string existence =
        "db2-fn:xmlcolumn('AXES.DOC')/doc[wrap//leaf]";
    ExecOptions cold;
    cold.disable_cache = true;
    auto explain = db->ExplainAnalyzeXQuery(existence, cold);
    auto result = db->ExecuteXQuery(existence, cold);
    if (!explain.ok() || !result.ok()) {
      std::fprintf(stderr, "summary-existence query failed\n");
      return 1;
    }
    summary_counters = result->stats.ToJson();
    rows.push_back({"summary_existence_probe", 0, 0,
                    "EXPLAIN ANALYZE of //a//b existence; rows from the "
                    "DataGuide",
                    summary_counters});
    std::printf("--- EXPLAIN ANALYZE (//a//b existence) ---\n%s\n",
                explain->c_str());
    if (assert_counters) {
      if (result->stats.docs_scanned != 0 ||
          result->plan.find("PATH SUMMARY EXISTENCE PROBE") ==
              std::string::npos) {
        std::fprintf(stderr,
                     "--assert-counters FAILED: expected the path-summary "
                     "probe with docs_scanned=0, got docs_scanned=%lld "
                     "(counters: %s)\n",
                     result->stats.docs_scanned, summary_counters.c_str());
        exit_code = 1;
      } else if (deep_structural_stats.structural_join_emitted == 0) {
        std::fprintf(stderr,
                     "--assert-counters FAILED: structural runs emitted no "
                     "joined nodes (counters: %s)\n",
                     deep_structural_stats.ToJson().c_str());
        exit_code = 1;
      } else {
        std::printf("assert-counters OK: docs_scanned=0, "
                    "structural_join_emitted=%lld, summary_pruned_paths=%lld\n",
                    deep_structural_stats.structural_join_emitted,
                    result->stats.summary_pruned_paths);
      }
    }
  }
  if (assert_speedup > 0 && deep_speedup < assert_speedup) {
    std::fprintf(stderr,
                 "--assert-speedup FAILED: deep descendant speedup %.2fx < "
                 "required %.2fx\n",
                 deep_speedup, assert_speedup);
    exit_code = 1;
  }

  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"bench_axes\",\n";
  json += "  \"docs_per_shape\": " + std::to_string(DocsPerShape()) + ",\n";
  json += "  \"chain_depth\": " + std::to_string(ChainDepth()) + ",\n";
  json += "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendJson(&json, rows[i], i + 1 == rows.size());
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return exit_code;
}
