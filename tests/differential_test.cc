// Replays the checked-in regression corpus (tests/corpus/*.xqd) through
// the differential runner and smoke-tests the generator + minimizer. Each
// corpus file is a bug that was found and fixed: its scenario must run
// divergence-free on every oracle (testing::OracleNames()) and match any
// pinned expectations. Reverting one of the fixes makes the corresponding
// file fail here.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "testing/differential.h"
#include "testing/query_gen.h"

namespace xqdb {
namespace testing {
namespace {

std::string DivergenceReport(const std::vector<Divergence>& divs) {
  std::string out;
  for (const Divergence& d : divs) {
    out += "[" + d.oracle + " / " + d.phase + "] " + d.query.text + "\n" +
           d.detail + "\n";
  }
  return out;
}

TEST(CorpusTest, EveryCorpusCaseIsDivergenceFree) {
  const std::filesystem::path dir = XQDB_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  DiffOptions opt;
  opt.threads = 4;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".xqd") continue;
    SCOPED_TRACE(entry.path().filename().string());
    auto sc = LoadScenarioFile(entry.path().string());
    ASSERT_TRUE(sc.ok()) << sc.status().ToString();
    auto divs = RunScenario(*sc, opt);
    EXPECT_TRUE(divs.empty()) << DivergenceReport(divs);
    ++replayed;
  }
  EXPECT_GE(replayed, 6);  // the corpus must not silently vanish
}

TEST(GeneratorTest, ScenariosAreDeterministicPerSeed) {
  QueryGenerator a(17), b(17), c(18);
  DiffScenario sa = a.GenerateScenario(10);
  DiffScenario sb = b.GenerateScenario(10);
  DiffScenario sc = c.GenerateScenario(10);
  EXPECT_EQ(SerializeScenario(sa, ""), SerializeScenario(sb, ""));
  EXPECT_NE(SerializeScenario(sa, ""), SerializeScenario(sc, ""));
}

TEST(GeneratorTest, GeneratedScenariosRunDivergenceFree) {
  DiffOptions opt;
  opt.threads = 2;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueryGenerator gen(seed);
    DiffScenario sc = gen.GenerateScenario(8);
    auto divs = RunScenario(sc, opt);
    EXPECT_TRUE(divs.empty()) << DivergenceReport(divs);
  }
}

TEST(CorpusFormatTest, SerializeParseRoundTrips) {
  QueryGenerator gen(23);
  DiffScenario sc = gen.GenerateScenario(6);
  sc.extra_docs.push_back("<order><custid>1</custid></order>");
  sc.bad_docs.push_back("<order>&#xD800;</order>");
  sc.queries[0].expect = "line one\nline two\nback\\slash\n";
  std::string text = SerializeScenario(sc, "round trip\nsecond line");
  auto parsed = ParseScenarioText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeScenario(*parsed, ""), SerializeScenario(sc, ""));
  EXPECT_EQ(parsed->queries[0].expect, sc.queries[0].expect);
}

TEST(CorpusFormatTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(ParseScenarioText("no colon here\n").ok());
  EXPECT_FALSE(ParseScenarioText("wrongkey: x\n").ok());
  EXPECT_FALSE(ParseScenarioText("expect: orphan\n").ok());
}

TEST(CorpusFormatTest, MalformedNumbersAreParseErrorsNotCrashes) {
  // Regression: these header values went through bare std::stoi/stod and
  // threw uncaught std::invalid_argument out of xqdiff --replay. Each must
  // now come back as a ParseError naming the offending line.
  const char* cases[] = {
      "seed: banana\n",
      "seed: -1\n",
      "seed: 99999999999999999999\n",
      "orders: twelve\n",
      "orders: -5\n",
      "orders: 2.5\n",
      "customers: \n",
      "products: 1e3\n",
      "lineitems_max: 0x10\n",
      "multi_price: lots\n",
      "multi_price: 1.5\n",
      "multi_price: -0.1\n",
      "multi_price: NaN\n",
      "string_price: 100%\n",
      "canadian: eh\n",
  };
  for (const char* text : cases) {
    auto parsed = ParseScenarioText(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
    // The diagnostic names the line so a hand-edited corpus is fixable.
    EXPECT_NE(parsed.status().ToString().find("line 1"), std::string::npos)
        << parsed.status().ToString();
  }
  // Sanity: the same keys with clean values parse.
  auto good = ParseScenarioText(
      "seed: 7\norders: 12\nmulti_price: 0.25\n"
      "xquery: db2-fn:xmlcolumn('ORDERS.ORDDOC')/order\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->workload.seed, 7u);
  EXPECT_EQ(good->workload.num_orders, 12);
}

TEST(MinimizerTest, ShrinksToTheImplicatedQuery) {
  // Three harmless queries plus one with an impossible pinned expectation:
  // the minimizer must keep the divergence alive while dropping everything
  // else (the other queries, the DDL, the DML epoch).
  QueryGenerator gen(5);
  DiffScenario sc;
  sc.workload = gen.GenerateWorkload();
  sc.workload.num_orders = 16;
  sc.ddl.push_back(
      "CREATE INDEX li_price ON orders(orddoc) "
      "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
  const char* col = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";
  sc.queries.push_back(
      GenQuery{false, std::string(col) + "/order/custid", ""});
  sc.queries.push_back(GenQuery{
      false, "count(" + std::string(col) + "/order)", "never-this\n"});
  sc.queries.push_back(
      GenQuery{false, std::string(col) + "/order/date", ""});
  sc.dml.push_back("DELETE FROM orders WHERE ordid >= 8");

  DiffOptions opt;
  opt.threads = 0;
  auto divs = RunScenario(sc, opt);
  ASSERT_FALSE(divs.empty());
  ASSERT_EQ(divs[0].oracle, "expectation");

  DiffScenario small = MinimizeScenario(sc, opt, "expectation");
  EXPECT_EQ(small.queries.size(), 1u);
  EXPECT_NE(small.queries[0].text.find("count("), std::string::npos);
  EXPECT_TRUE(small.ddl.empty());
  EXPECT_TRUE(small.dml.empty());
  EXPECT_LE(small.workload.num_orders, 4);
  // And the minimized scenario still reproduces.
  auto re = RunScenario(small, opt);
  ASSERT_FALSE(re.empty());
  EXPECT_EQ(re[0].oracle, "expectation");
}

}  // namespace
}  // namespace testing
}  // namespace xqdb
