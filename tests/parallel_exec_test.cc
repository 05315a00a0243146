// Determinism and caching tests for the parallel execution engine: the
// N-thread engine must be observationally identical to the 1-thread engine
// (byte-identical result sets, same index contents), and repeated queries
// must hit the compiled-query cache instead of re-parsing.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "core/database.h"
#include "workload/generator.h"
#include "xpath/pattern_cache.h"

namespace xqdb {
namespace {

// 200 orders clears the executor's parallel-scan threshold (64 rows) by a
// wide margin; string prices exercise the tolerant-cast path concurrently.
OrdersWorkloadConfig TestWorkload() {
  OrdersWorkloadConfig config;
  config.num_orders = 200;
  config.seed = 7;
  config.string_price_fraction = 0.1;
  config.multi_price_fraction = 0.1;
  return config;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  }

  static std::unique_ptr<Database> LoadedDb() {
    auto db = std::make_unique<Database>();
    Status s = LoadPaperWorkload(db.get(), TestWorkload());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return db;
  }

  static std::string Sql(Database* db, const std::string& sql,
                         ExecStats* stats = nullptr) {
    auto rs = db->ExecuteSql(sql);
    EXPECT_TRUE(rs.ok()) << sql << " => " << rs.status().ToString();
    if (!rs.ok()) return "<error>";
    if (stats != nullptr) *stats = rs->stats;
    return rs->ToString(1u << 20);
  }

  static std::string XQuery(Database* db, const std::string& q) {
    auto r = db->ExecuteXQuery(q);
    EXPECT_TRUE(r.ok()) << q << " => " << r.status().ToString();
    if (!r.ok()) return "<error>";
    std::string out;
    for (const std::string& row : r->rows) out += row + "\n";
    return out;
  }
};

// No index exists, so this XMLEXISTS predicate is evaluated per row by the
// fallback scan — the parallelized path.
constexpr char kScanQuery[] =
    "SELECT ordid FROM orders "
    "WHERE XMLEXISTS('$o//lineitem[@price > 900]' passing orddoc as \"o\")";

TEST_F(ParallelExecTest, ParallelScanMatchesSerialByteForByte) {
  auto db = LoadedDb();

  ThreadPool::SetGlobalThreads(1);
  ExecStats serial_stats;
  const std::string serial = Sql(db.get(), kScanQuery, &serial_stats);

  ThreadPool::SetGlobalThreads(4);
  ExecStats parallel_stats;
  const std::string parallel = Sql(db.get(), kScanQuery, &parallel_stats);

  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial.size(), 10u) << "query should match some orders";
  // Per-chunk ExecStats merge must equal the serial totals.
  EXPECT_EQ(serial_stats.rows_scanned, parallel_stats.rows_scanned);
  EXPECT_EQ(serial_stats.xquery_evals, parallel_stats.xquery_evals);
}

TEST_F(ParallelExecTest, ParallelXQueryMatchesSerial) {
  auto db = LoadedDb();
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//lineitem[@price > 900]/@price return $i";

  ThreadPool::SetGlobalThreads(1);
  const std::string serial = XQuery(db.get(), q);
  ThreadPool::SetGlobalThreads(4);
  const std::string parallel = XQuery(db.get(), q);
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST_F(ParallelExecTest, ParallelDeleteMatchesSerial) {
  auto serial_db = LoadedDb();
  auto parallel_db = LoadedDb();
  const std::string del =
      "DELETE FROM orders "
      "WHERE XMLEXISTS('$o//lineitem[@price > 800]' passing orddoc as \"o\")";
  const std::string survey = "SELECT ordid FROM orders";

  ThreadPool::SetGlobalThreads(1);
  Sql(serial_db.get(), del);
  const std::string serial = Sql(serial_db.get(), survey);

  ThreadPool::SetGlobalThreads(4);
  Sql(parallel_db.get(), del);
  const std::string parallel = Sql(parallel_db.get(), survey);

  EXPECT_EQ(serial, parallel);
}

TEST_F(ParallelExecTest, ParallelIndexBuildMatchesSerial) {
  const std::string ddl =
      "CREATE INDEX li_price ON orders(orddoc) "
      "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE";

  auto serial_db = LoadedDb();
  ThreadPool::SetGlobalThreads(1);
  Sql(serial_db.get(), ddl);

  auto parallel_db = LoadedDb();
  ThreadPool::SetGlobalThreads(4);
  Sql(parallel_db.get(), ddl);

  // Probe the freshly built indexes: identical rows and identical B+Tree
  // entry counts regardless of how many threads built them.
  ThreadPool::SetGlobalThreads(1);
  ExecStats serial_stats, parallel_stats;
  const std::string serial = Sql(serial_db.get(), kScanQuery, &serial_stats);
  const std::string parallel =
      Sql(parallel_db.get(), kScanQuery, &parallel_stats);

  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_stats.index_entries_probed, parallel_stats.index_entries_probed);
  EXPECT_EQ(serial_stats.index_docs_returned, parallel_stats.index_docs_returned);
  EXPECT_GT(serial_stats.index_entries_probed, 0)
      << "probe should have used the index";
}

TEST_F(ParallelExecTest, PlanCacheHitSkipsParseAndPlan) {
  auto db = LoadedDb();
  const auto before = db->query_cache_stats();

  ExecStats first_stats, second_stats;
  const std::string first = Sql(db.get(), kScanQuery, &first_stats);
  const std::string second = Sql(db.get(), kScanQuery, &second_stats);

  EXPECT_EQ(first, second);
  EXPECT_EQ(first_stats.plan_cache_hits, 0);
  EXPECT_EQ(second_stats.plan_cache_hits, 1);
  const auto after = db->query_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST_F(ParallelExecTest, DdlInvalidatesCachedPlans) {
  auto db = LoadedDb();
  Sql(db.get(), kScanQuery);  // populate the cache (full-scan plan)

  // New index bumps the catalog version: the cached plan must be dropped
  // and the query re-planned to use the index.
  Sql(db.get(),
      "CREATE INDEX li_price ON orders(orddoc) "
      "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");

  ExecStats stats;
  const std::string replanned = Sql(db.get(), kScanQuery, &stats);
  EXPECT_EQ(stats.plan_cache_hits, 0) << "stale plan must not be reused";
  EXPECT_GT(stats.index_entries_probed, 0) << "re-planned query should probe index";
  EXPECT_GE(db->query_cache_stats().invalidated, 1u);

  // And the re-planned entry is itself cacheable.
  ExecStats again;
  Sql(db.get(), kScanQuery, &again);
  EXPECT_EQ(again.plan_cache_hits, 1);
}

TEST_F(ParallelExecTest, XQueryPlanCacheHits) {
  auto db = LoadedDb();
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//lineitem[@price > 950]/@price return $i";
  auto first = db->ExecuteXQuery(q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.plan_cache_hits, 0);
  auto second = db->ExecuteXQuery(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.plan_cache_hits, 1);
  EXPECT_EQ(first->rows, second->rows);
}

// ----- Per-chunk ExecStats merge: exact totals ------------------------------
//
// The parallel filter gives every chunk a private ExecStats and merges them
// after the join; these pins catch double counting, a dropped chunk, and
// the n % grain == 0 edge (no phantom trailing chunk). The fixture builds
// its own table so every total is exactly computable.

class StatsMergeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  }

  void MakeTable(int rows) {
    Exec("CREATE TABLE t (id INTEGER, doc XML)");
    for (int i = 1; i <= rows; ++i) {
      Exec("INSERT INTO t VALUES (" + std::to_string(i) +
           ", '<o><l price=\"" + std::to_string(i) + "\"/></o>')");
    }
  }

  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
  }

  ExecStats Select(const std::string& sql, const ExecOptions& opts = {}) {
    auto rs = db_.ExecuteSql(sql, opts);
    EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    return rs.ok() ? rs->stats : ExecStats{};
  }

  static constexpr char kFilter[] =
      "SELECT id FROM t WHERE XMLEXISTS("
      "'$d//l[@price > 128]' passing doc as \"d\")";

  Database db_;
};

constexpr char StatsMergeTest::kFilter[];

TEST_F(StatsMergeTest, EmptyTableReportsAllZeroFilterCounters) {
  MakeTable(0);
  ThreadPool::SetGlobalThreads(4);
  ExecStats stats = Select(kFilter);
  EXPECT_EQ(stats.rows_filtered, 0);
  EXPECT_EQ(stats.xquery_evals, 0);
  EXPECT_EQ(stats.batches_executed, 0);
  EXPECT_EQ(stats.batch_rows, 0);
  EXPECT_EQ(stats.docs_scanned, 0);
}

TEST_F(StatsMergeTest, SingleRowExactCounters) {
  MakeTable(1);  // price 1, filtered by "> 128"
  ThreadPool::SetGlobalThreads(4);  // below threshold: serial chunk
  ExecStats stats = Select(kFilter);
  EXPECT_EQ(stats.rows_filtered, 1);
  // Every document contains //l, so the path-summary existence pre-filter
  // admits the whole table: visits are metered as index_docs_returned and
  // docs_scanned stays 0 (see the Definition-1 audit-trail comment in
  // SqlExecutor::Run).
  EXPECT_EQ(stats.rows_scanned, 1);
  EXPECT_EQ(stats.index_docs_returned, 1);
  EXPECT_EQ(stats.docs_scanned, 0);
  // The single row is kernel-decided: one sub-batch, one batch row, no
  // per-row evaluator fallback.
  EXPECT_EQ(stats.batches_executed, 1);
  EXPECT_EQ(stats.batch_rows, 1);
  EXPECT_EQ(stats.xquery_evals, 0);

  ExecOptions row_mode;
  row_mode.disable_batch = true;
  row_mode.disable_cache = true;
  ExecStats row_stats = Select(kFilter, row_mode);
  EXPECT_EQ(row_stats.rows_filtered, 1);
  EXPECT_EQ(row_stats.xquery_evals, 1);
  EXPECT_EQ(row_stats.batches_executed, 0);
}

TEST_F(StatsMergeTest, ExactGrainMultipleTotalsAcrossChunks) {
  // 256 rows at 4 threads: PredicateGrain = max(16, ceil(256/16)) = 16,
  // so exactly 16 chunks of exactly 16 rows — n % grain == 0, the edge
  // where an off-by-one in chunk math drops or repeats a chunk. Prices
  // 1..256 against "> 128" filter exactly half.
  MakeTable(256);
  ThreadPool::SetGlobalThreads(4);
  ExecStats stats = Select(kFilter);
  EXPECT_EQ(stats.rows_filtered, 128);
  EXPECT_EQ(stats.rows_scanned, 256);
  EXPECT_EQ(stats.index_docs_returned, 256);  // summary pre-filter admits all
  EXPECT_EQ(stats.docs_scanned, 0);
  // One kernel sub-batch per 16-row chunk; every row kernel-decided.
  EXPECT_EQ(stats.batches_executed, 16);
  EXPECT_EQ(stats.batch_rows, 256);
  EXPECT_EQ(stats.xquery_evals, 0);

  ExecOptions row_mode;
  row_mode.disable_batch = true;
  row_mode.disable_cache = true;
  ExecStats row_stats = Select(kFilter, row_mode);
  EXPECT_EQ(row_stats.rows_filtered, 128);
  EXPECT_EQ(row_stats.xquery_evals, 256);
  EXPECT_EQ(row_stats.batches_executed, 0);
  EXPECT_EQ(row_stats.batch_rows, 0);
}

TEST_F(StatsMergeTest, DeleteSurfacesMergedPredicateCounters) {
  // A DELETE selects its victims exactly as the SELECT of the same WHERE
  // does — path-summary pre-filter, batch kernels, per-chunk stats merged
  // — and reports the same counters: rows visited in rows_scanned, the
  // deleted count as rows_scanned - rows_filtered. 256 rows, 4 threads,
  // exact grain multiple.
  MakeTable(256);
  ThreadPool::SetGlobalThreads(4);
  auto rs = db_.ExecuteSql(
      "DELETE FROM t WHERE XMLEXISTS("
      "'$d//l[@price > 128]' passing doc as \"d\")");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->stats.rows_scanned, 256);
  EXPECT_EQ(rs->stats.index_docs_returned, 256);
  EXPECT_EQ(rs->stats.docs_scanned, 0);
  EXPECT_EQ(rs->stats.rows_filtered, 128);  // 256 - 128 = 128 deleted
  EXPECT_EQ(rs->stats.batches_executed, 16);
  EXPECT_EQ(rs->stats.batch_rows, 256);
  EXPECT_EQ(rs->stats.xquery_evals, 0);
  ExecStats after = Select(kFilter);
  EXPECT_EQ(after.rows_filtered, 128);  // survivors all fail the predicate
  EXPECT_EQ(after.index_docs_returned, 128);
}

TEST_F(ParallelExecTest, PatternCacheInternsCompiledPatterns) {
  const auto before = GetPatternCacheStats();
  auto a = GetCompiledPattern("//parallel-test/unique/@attr");
  ASSERT_TRUE(a.ok());
  auto b = GetCompiledPattern("//parallel-test/unique/@attr");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get()) << "same text must intern to one object";
  const auto after = GetPatternCacheStats();
  EXPECT_GE(after.hits, before.hits + 1);

  auto bad = GetCompiledPattern("///not a pattern[[[");
  EXPECT_FALSE(bad.ok()) << "compile failures must propagate, not cache";
}

}  // namespace
}  // namespace xqdb
