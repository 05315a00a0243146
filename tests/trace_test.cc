// EXPLAIN ANALYZE / tracing subsystem tests: the per-query ExecStats
// counters audit the paper's Definition 1 at execution time (an eligible
// probe touches only matching documents; the ineligible formulation visits
// the whole collection), the trace sink captures JSON records, and the
// metrics registry interns process-wide counters.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace xqdb {
namespace {

constexpr int kCollectionSize = 10;

/// orders with prices 100, 200, ..., 1000: predicates over @price have an
/// exactly countable matching set.
class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    for (int i = 1; i <= kCollectionSize; ++i) {
      Exec("INSERT INTO orders VALUES (" + std::to_string(i) +
           ", '<order><custid>" + std::to_string(i) +
           "</custid><lineitem price=\"" + std::to_string(i * 100) +
           "\"/></order>')");
    }
    Exec("CREATE INDEX li_price ON orders(orddoc) "
         "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
  }

  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
  }

  Database db_;
};

// ----- Eligibility vs counters (Definition 1, by numbers) -------------------

TEST_F(TraceFixture, EligibleProbeTouchesOnlyMatchingDocs) {
  // @price > 750 matches exactly {800, 900, 1000} — three documents.
  auto xr = db_.ExecuteXQuery(
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > 750] return $o/custid");
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  EXPECT_EQ(xr->rows.size(), 3u);
  EXPECT_EQ(xr->stats.index_docs_returned, 3);
  EXPECT_GE(xr->stats.index_entries_probed, 3);
  // The index pre-filter means no document was visited blind.
  EXPECT_EQ(xr->stats.docs_scanned, 0);
}

TEST_F(TraceFixture, IneligiblePredicateFallsBackToSummaryProbe) {
  // '!=' is ineligible on a DOUBLE index (it selects NaN and uncastable
  // values the index omits) — but the *structural* part of the predicate
  // (the path must exist) is still document-eliminating, and the path
  // summary admits the documents that hold the path. Here every document
  // contains the path, so the pre-filter is vacuous (all rows admitted)
  // yet no document is visited blind and no B-tree is touched.
  auto xr = db_.ExecuteXQuery(
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price != 750] return $o/custid");
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  EXPECT_EQ(xr->rows.size(), static_cast<size_t>(kCollectionSize));
  EXPECT_EQ(xr->stats.docs_scanned, 0);
  EXPECT_EQ(xr->stats.index_docs_returned, kCollectionSize);
  EXPECT_EQ(xr->stats.index_entries_probed, 0);
  EXPECT_NE(xr->plan.find("PATH SUMMARY EXISTENCE PROBE"), std::string::npos)
      << xr->plan;
}

TEST(TraceSummaryProbe, ValuePredicateNarrationAdmitsThenEvaluates) {
  // With no index, a value predicate runs behind a path-summary probe: the
  // DataGuide admits every document that holds the path and the query
  // evaluates each one. EXPLAIN ANALYZE says so, and the counters agree
  // (every order admitted, none scanned blind). The XQL015 note is for
  // structural predicates only, which the probe answers by itself.
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  for (int i = 1; i <= kCollectionSize; ++i) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (" +
                              std::to_string(i) +
                              ", '<order><lineitem price=\"" +
                              std::to_string(i * 100) + "\"/></order>')")
                    .ok());
  }
  auto text = db.ExplainAnalyzeXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 950]");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string plan_line =
      "  ORDERS.ORDDOC: PATH SUMMARY EXISTENCE PROBE "
      "//order/lineitem/@price (the strong DataGuide admits the documents "
      "that hold the path; the query evaluates each one)  -- path-summary "
      "existence probe for //order/lineitem/@price > 950 (xs:double "
      "comparison) (no eligible index)\n";
  EXPECT_EQ(text->substr(0, plan_line.size()), plan_line) << *text;
  EXPECT_NE(text->find("\n    rows_scanned = 10\n"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("\n    index_docs_returned = 10\n"),
            std::string::npos)
      << *text;
  EXPECT_EQ(text->find("\n    docs_scanned ="), std::string::npos) << *text;
  EXPECT_EQ(text->find("note: [XQL015]"), std::string::npos) << *text;
}

/// Every third order holds <giftwrap/>, and a VARCHAR index on
/// //giftwrap is eligible for exists(/order/giftwrap). The DataGuide
/// answers that predicate anyway: it admits exactly the holders and reads
/// no index entry, while EXPLAIN still names the eligible index.
class TraceStructuralExistence : public ::testing::Test {
 protected:
  static constexpr int kHolders = kCollectionSize / 3;

  void SetUp() override {
    ASSERT_TRUE(
        db_.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)")
            .ok());
    for (int i = 1; i <= kCollectionSize; ++i) {
      ASSERT_TRUE(db_.ExecuteSql("INSERT INTO orders VALUES (" +
                                 std::to_string(i) + ", '<order><custid>" +
                                 std::to_string(i) + "</custid>" +
                                 (i % 3 == 0 ? "<giftwrap/>" : "") +
                                 "</order>')")
                      .ok());
    }
    ASSERT_TRUE(db_.ExecuteSql("CREATE INDEX gw ON orders(orddoc) USING "
                               "XMLPATTERN '//giftwrap' AS SQL VARCHAR(16)")
                    .ok());
  }

  static void ExpectOneProbe(const std::string& plan, const ExecStats& stats) {
    EXPECT_NE(plan.find("PATH SUMMARY EXISTENCE PROBE /order/giftwrap"),
              std::string::npos)
        << plan;
    EXPECT_NE(plan.find("note: eligible: GW for exists(/order/giftwrap) "
                        "(structural)"),
              std::string::npos)
        << plan;
    EXPECT_EQ(plan.find("(no eligible index)"), std::string::npos) << plan;
    EXPECT_EQ(stats.index_entries_probed, 0);
    EXPECT_EQ(stats.docs_scanned, 0);
    EXPECT_EQ(stats.index_docs_returned, kHolders);
  }

  Database db_;
};

TEST_F(TraceStructuralExistence, SqlXmlExistsProbesTheDataGuide) {
  const std::string sql =
      "SELECT ordid FROM orders WHERE XMLEXISTS('$o/order/giftwrap' "
      "passing orddoc as \"o\")";
  auto rs = db_.ExecuteSql(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), static_cast<size_t>(kHolders));
  auto plan = db_.ExplainSql(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExpectOneProbe(*plan, rs->stats);
}

TEST_F(TraceStructuralExistence, XQueryProbesTheDataGuide) {
  auto xr = db_.ExecuteXQuery(
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[giftwrap] "
      "return $o/custid");
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  EXPECT_EQ(xr->rows.size(), static_cast<size_t>(kHolders));
  ExpectOneProbe(xr->plan, xr->stats);
}

TEST_F(TraceFixture, ForcedScanReportsCollectionScan) {
  ExecOptions scan;
  scan.force_scan = true;
  auto xr = db_.ExecuteXQuery(
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > 750] return $o/custid",
      scan);
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  EXPECT_EQ(xr->rows.size(), 3u);
  EXPECT_EQ(xr->stats.docs_scanned, kCollectionSize);
  EXPECT_EQ(xr->stats.index_docs_returned, 0);
}

TEST(TraceNameTest, WildcardNameTestsProbeIndexAndPathSummary) {
  // `*:l` and `p:*` compile to one exact id each; the index build
  // (Pattern-NFA over every document) and the path-summary trie match them
  // with integer compares across namespaces.
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  const char* kDocs[] = {
      "<order xmlns=\"urn:o\"><custid>1</custid></order>",
      "<order xmlns:x=\"urn:x\"><custid>2</custid><n x:lang=\"en\"/></order>",
      "<order xmlns:x=\"urn:y\"><custid>3</custid><n x:lang=\"fr\"/></order>"};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (" +
                              std::to_string(i + 1) + ", '" + kDocs[i] + "')")
                    .ok());
  }
  ASSERT_TRUE(db.ExecuteSql("CREATE INDEX any_custid ON orders(orddoc) "
                            "USING XMLPATTERN '//*:custid' AS SQL DOUBLE")
                  .ok());
  auto probe = db.ExplainAnalyzeSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$d//*:custid[. = 1]' PASSING orddoc AS \"d\")");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_NE(probe->find("ANY_CUSTID"), std::string::npos) << *probe;
  EXPECT_NE(probe->find("index_docs_returned = 1"), std::string::npos)
      << *probe;
  auto exists = db.ExplainAnalyzeSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'declare namespace x=\"urn:x\"; $d//@x:*' PASSING orddoc AS \"d\")");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_NE(exists->find("PATH SUMMARY EXISTENCE PROBE"), std::string::npos)
      << *exists;
  EXPECT_NE(exists->find("index_docs_returned = 1"), std::string::npos)
      << *exists;
  EXPECT_EQ(exists->find("\n    docs_scanned ="), std::string::npos)
      << *exists;
}

// ----- Index-only (covering) aggregates -------------------------------------

TEST_F(TraceFixture, IndexOnlyAggregateAnswersFromEntriesAlone) {
  // fn:count over exactly the indexed path: the entry set IS the match set
  // (containment both ways), so the B+Tree answers without opening one
  // document — the counters must show it.
  auto xr = db_.ExecuteXQuery(
      "fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price)");
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  ASSERT_EQ(xr->rows.size(), 1u);
  EXPECT_EQ(xr->rows[0], "10");
  EXPECT_NE(xr->plan.find("XML INDEX ONLY SCAN LI_PRICE"), std::string::npos)
      << xr->plan;
  EXPECT_EQ(xr->stats.index_only_rows, kCollectionSize);
  EXPECT_EQ(xr->stats.index_docs_returned, kCollectionSize);
  EXPECT_EQ(xr->stats.docs_scanned, 0);
  EXPECT_EQ(xr->stats.rows_scanned, 0);
}

TEST_F(TraceFixture, IndexOnlyAggregateValuesMatchTheEvaluator) {
  // 100 + 200 + ... + 1000; every aggregate is answered from keys only.
  const struct {
    const char* fn;
    const char* want;
  } kCases[] = {{"fn:sum", "5500"},
                {"fn:avg", "550"},
                {"fn:min", "100"},
                {"fn:max", "1000"}};
  for (const auto& c : kCases) {
    const std::string q = std::string(c.fn) +
                          "(db2-fn:xmlcolumn('ORDERS.ORDDOC')"
                          "//lineitem/@price)";
    auto fast = db_.ExecuteXQuery(q);
    ASSERT_TRUE(fast.ok()) << q << ": " << fast.status().ToString();
    ASSERT_EQ(fast->rows.size(), 1u) << q;
    EXPECT_EQ(fast->rows[0], c.want) << q;
    EXPECT_GT(fast->stats.index_only_rows, 0) << q;
    EXPECT_EQ(fast->stats.docs_scanned, 0) << q;
    // Ground truth: the same query with batch execution disabled runs the
    // evaluator over the collection and must agree byte for byte.
    ExecOptions row_mode;
    row_mode.disable_batch = true;
    auto slow = db_.ExecuteXQuery(q, row_mode);
    ASSERT_TRUE(slow.ok()) << q << ": " << slow.status().ToString();
    ASSERT_EQ(slow->rows.size(), 1u) << q;
    EXPECT_EQ(slow->rows[0], fast->rows[0]) << q;
    EXPECT_EQ(slow->stats.index_only_rows, 0) << q;
    EXPECT_GT(slow->stats.docs_scanned, 0) << q;
  }
}

TEST_F(TraceFixture, IndexOnlyAggregateDemotesAfterUncastableInsert) {
  // A post-DML document whose @price cannot cast to double is tolerantly
  // skipped by the index (cast_skip_count > 0): the entries now UNDER-count
  // the match set, so the covering claim is stale and execution must demote
  // to the collection scan — which sees all 11 @price nodes.
  Exec("INSERT INTO orders VALUES (11, '<order><custid>11</custid>"
       "<lineitem price=\"cheap\"/></order>')");
  auto xr = db_.ExecuteXQuery(
      "fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price)");
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  ASSERT_EQ(xr->rows.size(), 1u);
  EXPECT_EQ(xr->rows[0], "11");
  EXPECT_EQ(xr->stats.index_only_rows, 0);
  EXPECT_EQ(xr->stats.docs_scanned, kCollectionSize + 1);
}

// ----- EXPLAIN ANALYZE rendering --------------------------------------------

TEST_F(TraceFixture, ExplainAnalyzeXQueryAnnotatesPlanWithCounters) {
  auto r = db_.ExplainAnalyzeXQuery(
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > 750] return $o/custid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("XML INDEX RANGE SCAN LI_PRICE"), std::string::npos) << *r;
  EXPECT_NE(r->find("runtime:"), std::string::npos) << *r;
  EXPECT_NE(r->find("index_docs_returned = 3"), std::string::npos) << *r;
  EXPECT_NE(r->find("time: parse"), std::string::npos) << *r;
}

TEST_F(TraceFixture, ExplainAnalyzeXQueryShowsIndexOnlyCounters) {
  auto r = db_.ExplainAnalyzeXQuery(
      "fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("XML INDEX ONLY SCAN LI_PRICE"), std::string::npos) << *r;
  EXPECT_NE(r->find("index_only_rows = 10"), std::string::npos) << *r;
  // Zero counters are elided — docs_scanned must not appear at all.
  EXPECT_EQ(r->find("docs_scanned"), std::string::npos) << *r;
}

TEST_F(TraceFixture, ExplainAnalyzeSqlAnnotatesPlanWithCounters) {
  auto r = db_.ExplainAnalyzeSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 750]' passing orddoc as \"o\")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("runtime:"), std::string::npos) << *r;
  EXPECT_NE(r->find("index_entries_probed"), std::string::npos) << *r;
  EXPECT_NE(r->find("time: parse"), std::string::npos) << *r;
}

TEST_F(TraceFixture, ExplainAnalyzeSqlOnDdlReportsNoPlan) {
  Database fresh;
  auto r = fresh.ExplainAnalyzeSql(
      "CREATE TABLE t2 (id INTEGER, doc XML)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("no access plan"), std::string::npos) << *r;
  EXPECT_NE(r->find("runtime:"), std::string::npos) << *r;
}

// ----- A DELETE selects its victims like a SELECT ---------------------------

TEST_F(TraceFixture, ExplainSqlShowsTheDeleteVictimsAccessPath) {
  auto r = db_.ExplainSql(
      "DELETE FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 750]' passing orddoc as \"o\")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("XML INDEX RANGE SCAN LI_PRICE"), std::string::npos)
      << *r;
  EXPECT_EQ(r->find("no access plan"), std::string::npos) << *r;
  // EXPLAIN does not execute: nothing was deleted.
  auto rs = db_.ExecuteSql("SELECT ordid FROM orders");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), static_cast<size_t>(kCollectionSize));
}

TEST_F(TraceFixture, SearchedDeleteProbesTheIndexAndCountsLikeASelect) {
  std::vector<std::string> records;
  SetTraceSinkForTesting(
      [&records](const std::string& line) { records.push_back(line); });
  ExecOptions traced;
  traced.trace = true;
  auto rs = db_.ExecuteSql(
      "DELETE FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 750]' passing orddoc as \"o\")",
      traced);
  SetTraceSinkForTesting(nullptr);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Prices 800, 900, 1000: three candidates from the probe, no document
  // visited blind, all three kept by the WHERE and deleted.
  EXPECT_EQ(rs->stats.index_docs_returned, 3);
  EXPECT_EQ(rs->stats.docs_scanned, 0);
  EXPECT_EQ(rs->stats.rows_scanned, 3);
  EXPECT_EQ(rs->stats.rows_filtered, 0);
  EXPECT_GT(rs->stats.plan_ns, 0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("XML INDEX RANGE SCAN LI_PRICE"),
            std::string::npos)
      << records[0];
  auto left = db_.ExecuteSql("SELECT ordid FROM orders");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->rows.size(), static_cast<size_t>(kCollectionSize - 3));
}

TEST_F(TraceFixture, ExplainAnalyzeDeleteReportsTheVictimsPlanAndCounters) {
  auto r = db_.ExplainAnalyzeSql(
      "DELETE FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 750]' passing orddoc as \"o\")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("XML INDEX RANGE SCAN LI_PRICE"), std::string::npos)
      << *r;
  EXPECT_NE(r->find("index_docs_returned = 3"), std::string::npos) << *r;
  EXPECT_EQ(r->find("docs_scanned"), std::string::npos) << *r;
}

TEST_F(TraceFixture, ForcedScanDeleteVisitsEveryRow) {
  ExecOptions scan;
  scan.force_scan = true;
  auto rs = db_.ExecuteSql(
      "DELETE FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 750]' passing orddoc as \"o\")",
      scan);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->stats.docs_scanned, kCollectionSize);
  EXPECT_EQ(rs->stats.index_docs_returned, 0);
  EXPECT_EQ(rs->stats.rows_scanned, kCollectionSize);
  EXPECT_EQ(rs->stats.rows_filtered, kCollectionSize - 3);
}

TEST_F(TraceFixture, StaticallyEmptyDeleteScansNothingUnlessDisabled) {
  const std::string del =
      "DELETE FROM orders WHERE XMLEXISTS("
      "'$o/order/giftwrap' passing orddoc as \"o\")";
  auto r = db_.ExplainAnalyzeSql(del);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("STATIC EMPTY"), std::string::npos) << *r;
  auto rs = db_.ExecuteSql(del);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->stats.static_pruned_exprs, 1);
  EXPECT_EQ(rs->stats.rows_scanned, 0);
  EXPECT_EQ(rs->stats.docs_scanned, 0);

  // disable_static reaches a DELETE as it reaches a SELECT: no fold, and
  // the victims come from the path-summary probe of the unfolded plan.
  ExecOptions unopt;
  unopt.disable_static = true;
  auto unfolded = db_.ExplainAnalyzeSql(del, unopt);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status().ToString();
  EXPECT_EQ(unfolded->find("STATIC EMPTY"), std::string::npos) << *unfolded;
  EXPECT_EQ(unfolded->find("static_pruned_exprs"), std::string::npos)
      << *unfolded;
  EXPECT_NE(unfolded->find("PATH SUMMARY EXISTENCE PROBE"), std::string::npos)
      << *unfolded;
}

TEST(TraceDeleteTest, CustomerDeleteMakesNoEvaluationPastItsVictims) {
  // 40 orders over 5 customers, with an index on /order/custid: deleting
  // one customer's orders probes the index for its 8 rows, opens no other
  // document, and evaluates the WHERE at most once per victim.
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (" +
                              std::to_string(i) + ", '<order><custid>" +
                              std::to_string(i % 5) +
                              "</custid><lineitem price=\"10\"/></order>')")
                    .ok());
  }
  ASSERT_TRUE(db.ExecuteSql("CREATE INDEX o_cust ON orders(orddoc) "
                            "USING XMLPATTERN '/order/custid' AS SQL DOUBLE")
                  .ok());
  auto rs = db.ExecuteSql(
      "DELETE FROM orders WHERE XMLEXISTS("
      "'$o/order[custid = 3]' passing orddoc as \"o\")");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->stats.docs_scanned, 0);
  EXPECT_EQ(rs->stats.index_docs_returned, 8);
  EXPECT_EQ(rs->stats.rows_scanned, 8);
  EXPECT_EQ(rs->stats.rows_filtered, 0);
  EXPECT_LE(rs->stats.xquery_evals, 8);
  auto left = db.ExecuteSql("SELECT ordid FROM orders");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->rows.size(), 32u);
}

// ----- Phase timings and the plan cache -------------------------------------

TEST_F(TraceFixture, ColdExecutionTimesEveryPhase) {
  ExecOptions cold;
  cold.disable_cache = true;
  auto rs = db_.ExecuteSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 350]' passing orddoc as \"o\")",
      cold);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(rs->stats.parse_ns, 0);
  EXPECT_GT(rs->stats.exec_ns, 0);
  EXPECT_GE(rs->stats.total_ns,
            rs->stats.parse_ns + rs->stats.plan_ns + rs->stats.exec_ns);
}

TEST_F(TraceFixture, CacheHitSkipsParseAndPlanPhases) {
  const std::string q =
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 450]' passing orddoc as \"o\")";
  ASSERT_TRUE(db_.ExecuteSql(q).ok());  // compile into the cache
  auto hit = db_.ExecuteSql(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->stats.plan_cache_hits, 1);
  EXPECT_EQ(hit->stats.parse_ns, 0);
  EXPECT_EQ(hit->stats.plan_ns, 0);
  EXPECT_GT(hit->stats.total_ns, 0);
}

TEST_F(TraceFixture, SerialQueryReportsThreadCpuTime) {
  ThreadPool::SetGlobalThreads(1);
  ExecOptions scan;
  scan.force_scan = true;
  auto rs = db_.ExecuteSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 350]' passing orddoc as \"o\")",
      scan);
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(rs->stats.cpu_ns, 0);
  EXPECT_NE(rs->stats.ToJson().find("\"cpu_ns\": "), std::string::npos);
  auto r = db_.ExplainAnalyzeXQuery(
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > 750] return $o/custid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->find("(cpu "), std::string::npos) << *r;
}

TEST(TracePoolTest, ParallelScanCpuIsTheMergedChunkValues) {
  // The chunk meter's contract, driven the way the executor drives it: a
  // chunk on a worker thread records its thread CPU time, a chunk the
  // calling thread helps with records nothing (the caller's exec-phase
  // CPU already covers it), and Merge sums — so the query's cpu_ns is the
  // caller's share plus exactly the merged chunk values.
  ThreadPool::SetGlobalThreads(4);
  constexpr size_t kChunks = 16;
  std::vector<ExecStats> chunks(kChunks);
  std::vector<char> on_caller(kChunks, 0);
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::Global().ParallelFor(0, kChunks, 1, [&](size_t lo, size_t) {
    ChunkCpuMeter cpu(&chunks[lo], caller);
    on_caller[lo] = std::this_thread::get_id() == caller ? 1 : 0;
    const long long start = ThreadCpuNs();
    while (ThreadCpuNs() - start < 200000) {
    }
  });
  ExecStats total;
  long long sum = 0;
  for (size_t c = 0; c < kChunks; ++c) {
    if (on_caller[c]) {
      EXPECT_EQ(chunks[c].cpu_ns, 0) << "chunk " << c;
    } else {
      EXPECT_GE(chunks[c].cpu_ns, 200000) << "chunk " << c;
    }
    sum += chunks[c].cpu_ns;
    total.Merge(chunks[c]);
  }
  EXPECT_EQ(total.cpu_ns, sum);

  // A real parallel scan reports it end to end.
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  for (int i = 1; i <= 200; ++i) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (" +
                              std::to_string(i) +
                              ", '<order><lineitem price=\"" +
                              std::to_string(i) + "\"/></order>')")
                    .ok());
  }
  ExecOptions scan;
  scan.force_scan = true;
  auto rs = db.ExecuteSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 150]' passing orddoc as \"o\")",
      scan);
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(rs->stats.pool_tasks, 0);
  EXPECT_GT(rs->stats.cpu_ns, 0);
}

TEST(TracePoolTest, PoolTasksMeteredOnParallelScan) {
  // Needs a collection above the executor's parallel-row threshold (64)
  // for the scan to fan out at all.
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  for (int i = 1; i <= 200; ++i) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (" +
                              std::to_string(i) +
                              ", '<order><lineitem price=\"" +
                              std::to_string(i) + "\"/></order>')")
                    .ok());
  }
  ThreadPool::SetGlobalThreads(4);
  ExecOptions scan;
  scan.force_scan = true;
  auto rs = db.ExecuteSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 150]' passing orddoc as \"o\")",
      scan);
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // The forced scan fans its row chunks out on the pool; the per-query
  // delta of the dispatch counter must have seen them.
  EXPECT_GT(rs->stats.pool_tasks, 0);
}

// ----- Index build counters (DDL-side observability) ------------------------

TEST(TraceBuildTest, CreateIndexReportsNfaMatchesAndCastSkips) {
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (1, "
                            "'<order><lineitem price=\"10\"/></order>')")
                  .ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (2, "
                            "'<order><lineitem price=\"20 USD\"/></order>')")
                  .ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (3, "
                            "'<order><lineitem price=\"30\"/></order>')")
                  .ok());
  auto rs = db.ExecuteSql(
      "CREATE INDEX li_price ON orders(orddoc) "
      "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Three @price nodes matched the pattern; '20 USD' was tolerantly
  // skipped (the paper's §2.2 behaviour), so two entries were built.
  EXPECT_EQ(rs->stats.nfa_matches, 3);
  EXPECT_EQ(rs->stats.cast_failures, 1);
}

// ----- Trace sink -----------------------------------------------------------

TEST_F(TraceFixture, TraceSinkReceivesJsonRecord) {
  std::vector<std::string> records;
  SetTraceSinkForTesting(
      [&records](const std::string& line) { records.push_back(line); });
  ExecOptions traced;
  traced.trace = true;
  auto xr = db_.ExecuteXQuery(
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > 750] return $o/custid",
      traced);
  SetTraceSinkForTesting(nullptr);
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("\"kind\": \"xquery\""), std::string::npos)
      << records[0];
  EXPECT_NE(records[0].find("\"ok\": true"), std::string::npos) << records[0];
  EXPECT_NE(records[0].find("\"index_docs_returned\": 3"), std::string::npos)
      << records[0];
  EXPECT_NE(records[0].find("\"plan\""), std::string::npos) << records[0];
}

TEST_F(TraceFixture, TraceSinkRecordsFailuresWithError) {
  std::vector<std::string> records;
  SetTraceSinkForTesting(
      [&records](const std::string& line) { records.push_back(line); });
  ExecOptions traced;
  traced.trace = true;
  auto rs = db_.ExecuteSql("SELECT nonsense FROM nowhere??", traced);
  SetTraceSinkForTesting(nullptr);
  ASSERT_FALSE(rs.ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("\"ok\": false"), std::string::npos) << records[0];
  EXPECT_NE(records[0].find("\"error\""), std::string::npos) << records[0];
}

// Revert detector for the guarded-state escape the -Wthread-safety pass
// flagged in EmitTrace: the sink callback used to run while SinkMutex was
// held, so a sink that itself traces (below) re-entered the non-recursive
// mutex — undefined behavior, a deadlock in practice (this test hung, and
// TSan reported a double lock). The fix snapshots the sink under the lock
// and invokes it unlocked.
TEST_F(TraceFixture, TraceSinkMayReenterTracing) {
  std::vector<std::string> records;
  SetTraceSinkForTesting([&records](const std::string& line) {
    records.push_back(line);
    if (records.size() == 1) {
      // A sink that traces its own bookkeeping — e.g. an audit sink
      // recording "trace emitted" events through the same machinery.
      QueryTrace nested;
      nested.kind = "sink-audit";
      nested.text = "nested emit from inside the sink";
      EmitTrace(nested);
    }
  });
  QueryTrace outer;
  outer.kind = "sql";
  outer.text = "outer";
  EmitTrace(outer);
  SetTraceSinkForTesting(nullptr);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].find("\"query\": \"outer\""), std::string::npos);
  EXPECT_NE(records[1].find("\"kind\": \"sink-audit\""), std::string::npos);
}

// Same class of escape, other direction: a sink swapping in a replacement
// sink mid-emit (tests do this when chaining capture scopes) used to
// self-deadlock in SetTraceSinkForTesting.
TEST_F(TraceFixture, TraceSinkMayReplaceItself) {
  std::vector<std::string> first, second;
  SetTraceSinkForTesting([&](const std::string& line) {
    first.push_back(line);
    SetTraceSinkForTesting(
        [&second](const std::string& l) { second.push_back(l); });
  });
  QueryTrace a;
  a.kind = "sql";
  EmitTrace(a);
  QueryTrace b;
  b.kind = "xquery";
  EmitTrace(b);
  SetTraceSinkForTesting(nullptr);
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
}

TEST_F(TraceFixture, UntracedExecutionEmitsNothing) {
  std::vector<std::string> records;
  SetTraceSinkForTesting(
      [&records](const std::string& line) { records.push_back(line); });
  auto rs = db_.ExecuteSql("SELECT ordid FROM orders");
  SetTraceSinkForTesting(nullptr);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(records.empty());
}

// ----- Metrics registry -----------------------------------------------------

TEST(MetricsTest, CountersInternByName) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.interned");
  Counter* b = MetricsRegistry::Global().GetCounter("test.interned");
  EXPECT_EQ(a, b);
  long long before = a->value();
  b->Add(5);
  b->Increment();
  EXPECT_EQ(a->value(), before + 6);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.histo");
  for (int i = 0; i < 100; ++i) h->Record(1);
  h->Record(1000);
  EXPECT_EQ(h->count(), 101);
  EXPECT_EQ(h->sum(), 100 + 1000);
  // p50 lands in the ones bucket; p99+ must reach the 1000 sample's
  // power-of-two ceiling.
  EXPECT_LE(h->ApproxQuantile(0.5), 1);
  EXPECT_GE(h->ApproxQuantile(0.999), 1000);
}

// Revert detector for the histogram shift overflow: samples above 2^62
// used to drive `1LL << 63` in Record's bucket search (and in the
// quantile's bucket bound) — signed-overflow UB that aborts a
// -DXQDB_SANITIZE=undefined build. Huge samples are real inputs: the
// histogram records durations and scan lengths supplied by callers.
TEST(MetricsTest, HistogramAcceptsHugeSamplesWithoutShiftOverflow) {
  Histogram* h = MetricsRegistry::Global().GetHistogram("test.huge");
  h->Record(std::numeric_limits<long long>::max());
  h->Record((1LL << 62) + 1);
  h->Record(1LL << 62);
  EXPECT_EQ(h->count(), 3);
  // Everything above 2^62 lands in the open-ended top bucket, whose
  // reported bound is LLONG_MAX rather than an overflowed shift.
  EXPECT_EQ(h->ApproxQuantile(1.0), std::numeric_limits<long long>::max());
  EXPECT_EQ(h->bucket(Histogram::kBuckets - 1), 2);
}

TEST(MetricsTest, SnapshotJsonListsMetrics) {
  MetricsRegistry::Global().GetCounter("test.snapshot")->Add(3);
  std::string json = MetricsRegistry::Global().SnapshotJson();
  EXPECT_NE(json.find("test.snapshot"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
}

TEST(MetricsTest, QueryExecutionFeedsGlobalIndexMetrics) {
  Counter* probes = MetricsRegistry::Global().GetCounter("index.nfa_matches");
  long long before = probes->value();
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (1, "
                            "'<order><lineitem price=\"10\"/></order>')")
                  .ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE INDEX li_price ON orders(orddoc) "
                            "USING XMLPATTERN '//lineitem/@price' "
                            "AS SQL DOUBLE")
                  .ok());
  EXPECT_GE(probes->value(), before + 1);
}

// ----- Static type & cardinality folding (DESIGN.md §13) --------------------

TEST_F(TraceFixture, StaticallyEmptyXQueryScansNothing) {
  // /order/giftwrap has no occurrence in the DataGuide: the plan is marked
  // STATIC EMPTY and execution answers without opening one document or
  // evaluating one expression.
  auto xr = db_.ExecuteXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/giftwrap");
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  EXPECT_EQ(xr->rows.size(), 0u);
  EXPECT_EQ(xr->stats.docs_scanned, 0);
  EXPECT_EQ(xr->stats.xquery_evals, 0);
  EXPECT_GE(xr->stats.static_pruned_exprs, 1);
  EXPECT_NE(xr->plan.find("STATIC EMPTY"), std::string::npos) << xr->plan;
}

TEST_F(TraceFixture, DisableStaticEvaluatesTheSameQueryNormally) {
  ExecOptions opts;
  opts.disable_static = true;
  auto xr = db_.ExecuteXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/giftwrap", opts);
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  EXPECT_EQ(xr->rows.size(), 0u);  // same answer, without the static fold
  EXPECT_EQ(xr->stats.static_pruned_exprs, 0);
  // The §10 path-summary pruning (a *runtime* mechanism, independent of
  // the static pass) still cuts the dead path to zero candidate rows, so
  // docs_scanned stays 0 — but it gets there by probing the trie per
  // execution, not by a planner constant.
  EXPECT_EQ(xr->stats.docs_scanned, 0);
  EXPECT_GE(xr->stats.summary_pruned_paths, 1);
  EXPECT_EQ(xr->plan.find("STATIC EMPTY"), std::string::npos) << xr->plan;
}

TEST_F(TraceFixture, StaticallyFalseFirstConjunctPrunesTheSelect) {
  auto rs = db_.ExecuteSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS('$d/order/giftwrap' "
      "PASSING orddoc AS \"d\")");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 0u);
  EXPECT_EQ(rs->stats.docs_scanned, 0);
  EXPECT_EQ(rs->stats.xquery_evals, 0);
  EXPECT_GE(rs->stats.static_pruned_exprs, 1);
}

TEST_F(TraceFixture, ProvenTrueConjunctIsDroppedNotEvaluated) {
  // fn:exists(1) is exactly-one by pure type algebra: XMLEXISTS is
  // constant true, so the conjunct folds away and no embedded XQuery
  // evaluation runs — yet every row survives.
  auto rs = db_.ExecuteSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS('fn:exists(1)' "
      "PASSING orddoc AS \"d\")");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), static_cast<size_t>(kCollectionSize));
  EXPECT_GE(rs->stats.static_folded_conjuncts, 1);
  EXPECT_EQ(rs->stats.xquery_evals, 0);
}

TEST_F(TraceFixture, ExplainAnalyzeReportsStaticCounters) {
  auto plan = db_.ExplainAnalyzeXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/giftwrap");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("STATIC EMPTY"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("static_pruned_exprs"), std::string::npos) << *plan;
}

TEST_F(TraceFixture, StaleEmptinessProofDemotesCachedSelectPlan) {
  const std::string q =
      "SELECT ordid FROM orders WHERE XMLEXISTS('$d/order/giftwrap' "
      "PASSING orddoc AS \"d\")";
  auto cold = db_.ExecuteSql(q);  // compiles a STATIC EMPTY plan into cache
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->rows.size(), 0u);
  // DML invalidates the emptiness proof (plans stay cached across DML —
  // the catalog version deliberately does not bump).
  Exec("INSERT INTO orders VALUES (42, '<order><custid>9</custid>"
       "<giftwrap>yes</giftwrap></order>')");
  auto replay = db_.ExecuteSql(q);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->rows.size(), 1u);  // the new row, found the long way
  EXPECT_EQ(replay->stats.static_pruned_exprs, 0);
}

TEST_F(TraceFixture, StaleEmptinessProofDemotesCachedXQueryPlan) {
  const std::string q = "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/giftwrap";
  auto cold = db_.ExecuteXQuery(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->rows.size(), 0u);
  Exec("INSERT INTO orders VALUES (43, '<order><custid>9</custid>"
       "<giftwrap>yes</giftwrap></order>')");
  auto replay = db_.ExecuteXQuery(q);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->rows.size(), 1u);
  EXPECT_EQ(replay->stats.static_pruned_exprs, 0);
}

}  // namespace
}  // namespace xqdb
