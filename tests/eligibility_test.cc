// Unit tests of the core contribution: predicate extraction and index
// eligibility (paper §2.2 + §3), checked through EXPLAIN on both the
// standalone XQuery interface and SQL/XML.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"
#include "core/eligibility.h"
#include "core/predicate_extract.h"
#include "xpath/pattern.h"
#include "xquery/ast.h"
#include "xquery/parser.h"

namespace xqdb {
namespace {

// ----- Extraction-level tests -----------------------------------------------

ExtractionResult Extract(const std::string& query, const std::string& table,
                         const std::string& column,
                         const std::vector<std::string>& vars = {}) {
  auto parsed = ParseXQuery(query);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return ExtractPredicates(*parsed->body, table, column, vars);
}

int ValuePredicateCount(const ExtractionResult& r) {
  int n = 0;
  for (const auto& p : r.predicates) {
    if (p.has_value) ++n;
  }
  return n;
}

bool HasNoteContaining(const ExtractionResult& r, const std::string& text) {
  for (const auto& note : r.notes) {
    if (note.find(text) != std::string::npos) return true;
  }
  return false;
}

// ----- The shared step converter (xquery/ast.h) ----------------------------

/// Translates the axis steps of `$d/<steps>` with AppendNormStep, the one
/// converter extraction, static typing, batch kernels and covering
/// aggregates share: the pattern text, or why there is none.
std::string Translate(const std::string& steps) {
  auto parsed = ParseXQuery("$d/" + steps);
  EXPECT_TRUE(parsed.ok()) << steps << ": " << parsed.status().ToString();
  if (!parsed.ok()) return "parse error";
  const Expr& body = *parsed->body;
  std::vector<NormStep> out;
  bool pending_skip = false;
  for (size_t i = 1; i < body.steps.size(); ++i) {
    if (!AppendNormStep(body.steps[i], &pending_skip, &out)) {
      return "no linear form";
    }
  }
  if (pending_skip) return "trailing //";
  return out.empty() ? "(context)" : PatternToString(MakePattern({out}));
}

/// The name-only pre-check of batch kernels and covering aggregates on the
/// last step of `$d/<steps>`.
bool NameOnly(const std::string& steps) {
  auto parsed = ParseXQuery("$d/" + steps);
  EXPECT_TRUE(parsed.ok()) << steps << ": " << parsed.status().ToString();
  return parsed.ok() && IsNameOnlyStep(parsed->body->steps.back());
}

TEST(StepConverterTest, ChildAxisByNodeTestKind) {
  EXPECT_EQ(Translate("child::a"), "/a");
  EXPECT_EQ(Translate("child::*"), "/*");
  EXPECT_EQ(Translate("child::node()"), "/node()");
  EXPECT_EQ(Translate("child::text()"), "/text()");
  EXPECT_EQ(Translate("child::comment()"), "/comment()");
  EXPECT_EQ(Translate("child::processing-instruction(t)"),
            "/processing-instruction(t)");
  EXPECT_EQ(Translate("child::processing-instruction()"),
            "/processing-instruction()");
  EXPECT_EQ(Translate("child::document-node()"), "no linear form");
}

TEST(StepConverterTest, DescendantAxisByNodeTestKind) {
  EXPECT_EQ(Translate("descendant::a"), "//a");
  EXPECT_EQ(Translate("descendant::*"), "//*");
  EXPECT_EQ(Translate("descendant::node()"), "//node()");
  EXPECT_EQ(Translate("descendant::text()"), "//text()");
  EXPECT_EQ(Translate("descendant::comment()"), "//comment()");
  EXPECT_EQ(Translate("descendant::processing-instruction(t)"),
            "//processing-instruction(t)");
  EXPECT_EQ(Translate("descendant::document-node()"), "no linear form");
}

TEST(StepConverterTest, AttributeAxisByNodeTestKind) {
  EXPECT_EQ(Translate("attribute::a"), "/@a");
  EXPECT_EQ(Translate("@*"), "/@*");
  EXPECT_EQ(Translate("attribute::node()"), "/@*");
  EXPECT_EQ(Translate("attribute::text()"), "no linear form");
  EXPECT_EQ(Translate("attribute::comment()"), "no linear form");
  EXPECT_EQ(Translate("attribute::processing-instruction(t)"),
            "no linear form");
  EXPECT_EQ(Translate("attribute::document-node()"), "no linear form");
}

TEST(StepConverterTest, DescendantOrSelfOnlyAsBareSlashSlash) {
  // `//` is descendant-or-self::node(); the next consuming step absorbs it.
  EXPECT_EQ(Translate("a//b"), "/a//b");
  EXPECT_EQ(Translate("a//@b"), "/a//@b");
  EXPECT_EQ(Translate("descendant-or-self::node()/text()"), "//text()");
  EXPECT_EQ(Translate("a//descendant::b"), "/a//b");
  EXPECT_EQ(Translate("descendant-or-self::a"), "no linear form");
  EXPECT_EQ(Translate("descendant-or-self::text()"), "no linear form");
}

TEST(StepConverterTest, TrailingSlashSlashIsLeftPending) {
  EXPECT_EQ(Translate("a/descendant-or-self::node()"), "trailing //");
  EXPECT_EQ(Translate("descendant-or-self::node()"), "trailing //");
}

TEST(StepConverterTest, SelfNodeIsANoOpExceptAfterSlashSlash) {
  EXPECT_EQ(Translate("a/self::node()"), "/a");
  EXPECT_EQ(Translate("self::node()"), "(context)");
  EXPECT_EQ(Translate("a/self::node()/b"), "/a/b");
  EXPECT_EQ(Translate("a//self::node()"), "no linear form");
  EXPECT_EQ(Translate("a/self::a"), "no linear form");
  EXPECT_EQ(Translate("a/self::text()"), "no linear form");
}

TEST(StepConverterTest, UpwardAxesHaveNoLinearForm) {
  EXPECT_EQ(Translate("a/parent::node()"), "no linear form");
  EXPECT_EQ(Translate("a/.."), "no linear form");
  EXPECT_EQ(Translate("a/ancestor::b"), "no linear form");
  EXPECT_EQ(Translate("a/ancestor-or-self::b"), "no linear form");
}

TEST(StepConverterTest, NameOnlyPreCheck) {
  // Batch kernels and covering aggregates accept name tests on the child,
  // descendant and attribute axes plus a bare `//`, nothing else.
  EXPECT_TRUE(NameOnly("a"));
  EXPECT_TRUE(NameOnly("*"));
  EXPECT_TRUE(NameOnly("descendant::a"));
  EXPECT_TRUE(NameOnly("@a"));
  EXPECT_TRUE(NameOnly("@*"));
  EXPECT_TRUE(NameOnly("descendant-or-self::node()"));
  EXPECT_FALSE(NameOnly("node()"));
  EXPECT_FALSE(NameOnly("text()"));
  EXPECT_FALSE(NameOnly("comment()"));
  EXPECT_FALSE(NameOnly("processing-instruction(t)"));
  EXPECT_FALSE(NameOnly("attribute::node()"));
  EXPECT_FALSE(NameOnly("descendant::text()"));
  EXPECT_FALSE(NameOnly("descendant-or-self::a"));
  EXPECT_FALSE(NameOnly("self::node()"));
  EXPECT_FALSE(NameOnly("self::a"));
  EXPECT_FALSE(NameOnly("parent::node()"));
  EXPECT_FALSE(NameOnly("ancestor::a"));
}

TEST(ExtractTest, Query1PredicateFound) {
  auto r = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price>100] return $i",
      "ORDERS", "ORDDOC");
  ASSERT_EQ(ValuePredicateCount(r), 1);
  const ExtractedPredicate* p = nullptr;
  for (const auto& pred : r.predicates) {
    if (pred.has_value) p = &pred;
  }
  EXPECT_EQ(p->comparison_type, AtomicType::kDouble);
  EXPECT_EQ(p->op, CompareOp::kGt);
  EXPECT_EQ(p->constant.Lexical(), "100");
  EXPECT_FALSE(p->singleton_operand);  // lineitem/@price: many lineitems
}

TEST(ExtractTest, StringLiteralGivesStringComparison) {
  // Paper Query 3: "100" in quotes is a string comparison.
  auto r = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > \"100\"] return $i",
      "ORDERS", "ORDDOC");
  ASSERT_EQ(ValuePredicateCount(r), 1);
  for (const auto& p : r.predicates) {
    if (p.has_value) {
      EXPECT_EQ(p.comparison_type, AtomicType::kString);
    }
  }
}

TEST(ExtractTest, CastForcesDoubleComparison) {
  // Tip 1's xs:double(.) cast.
  auto r = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order"
      "[custid/xs:double(.) = \"17\"] return $i",
      "ORDERS", "ORDDOC");
  ASSERT_EQ(ValuePredicateCount(r), 1);
  for (const auto& p : r.predicates) {
    if (p.has_value) {
      EXPECT_EQ(p.comparison_type, AtomicType::kDouble);
    }
  }
}

TEST(ExtractTest, LetWithoutWhereIsNotFiltering) {
  // Paper Query 18.
  auto r = Extract(
      "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
      "let $item := $doc//lineitem[@price > 100] "
      "return <result>{$item}</result>",
      "ORDERS", "ORDDOC");
  EXPECT_EQ(ValuePredicateCount(r), 0);
  EXPECT_TRUE(HasNoteContaining(r, "let"));
}

TEST(ExtractTest, LetRescuedByWhere) {
  // Paper Query 21.
  auto r = Extract(
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "let $price := $ord/lineitem/@price "
      "where $price > 100 "
      "return <result>{$ord/lineitem}</result>",
      "ORDERS", "ORDDOC");
  EXPECT_EQ(ValuePredicateCount(r), 1);
}

TEST(ExtractTest, WhereClausePredicate) {
  // Paper Query 20.
  auto r = Extract(
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "where $ord/lineitem/@price > 100 "
      "return <result>{$ord/lineitem}</result>",
      "ORDERS", "ORDDOC");
  EXPECT_EQ(ValuePredicateCount(r), 1);
}

TEST(ExtractTest, ConstructorInReturnBlocksExtraction) {
  // Paper Query 19.
  auto r = Extract(
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "return <result>{$ord/lineitem[@price > 100]}</result>",
      "ORDERS", "ORDDOC");
  EXPECT_EQ(ValuePredicateCount(r), 0);
  EXPECT_TRUE(HasNoteContaining(r, "constructor"));
}

TEST(ExtractTest, BindOutReturnPathIsFiltering) {
  // Paper Query 22.
  auto r = Extract(
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "return $ord/lineitem[@price > 100]",
      "ORDERS", "ORDDOC");
  EXPECT_EQ(ValuePredicateCount(r), 1);
}

TEST(ExtractTest, BooleanTopLevelNoted) {
  // Paper Query 9's body.
  auto r = Extract("$order//lineitem/@price > 100", "ORDERS", "ORDDOC",
                   {"order"});
  EXPECT_EQ(ValuePredicateCount(r), 0);
  EXPECT_TRUE(HasNoteContaining(r, "boolean"));
}

TEST(ExtractTest, ExternalColumnVariable) {
  // SQL passing: $order holds the column value.
  auto r = Extract("$order//lineitem[@price > 100]", "ORDERS", "ORDDOC",
                   {"order"});
  EXPECT_EQ(ValuePredicateCount(r), 1);
}

TEST(ExtractTest, BetweenMergedForAttribute) {
  // Paper Query 30: @price occurs at most once per element.
  auto r = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem[@price>100 and @price<200]] return $i",
      "ORDERS", "ORDDOC");
  int merged = 0;
  for (const auto& p : r.predicates) {
    if (p.has_second) ++merged;
  }
  EXPECT_EQ(merged, 1);
}

TEST(ExtractTest, BetweenNotMergedForElementChildren) {
  // §3.10: price element children may repeat; two predicates remain.
  auto r = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem[price>100 and price<200]] return $i",
      "ORDERS", "ORDDOC");
  int merged = 0, single = 0;
  for (const auto& p : r.predicates) {
    if (!p.has_value) continue;
    if (p.has_second) {
      ++merged;
    } else {
      ++single;
    }
  }
  EXPECT_EQ(merged, 0);
  EXPECT_EQ(single, 2);
}

TEST(ExtractTest, BetweenMergedForSelfAxisData) {
  // §3.10: lineitem/price/data()[. > 100 and . < 200].
  auto r = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/price/data()[. > 100 and . < 200]] return $i",
      "ORDERS", "ORDDOC");
  int merged = 0;
  for (const auto& p : r.predicates) {
    if (p.has_second) ++merged;
  }
  EXPECT_EQ(merged, 1);
}

TEST(ExtractTest, OrPredicateSkippedWithNote) {
  auto r = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[custid = 1 or custid = 2] return $i",
      "ORDERS", "ORDDOC");
  EXPECT_EQ(ValuePredicateCount(r), 0);
  EXPECT_TRUE(HasNoteContaining(r, "OR"));
}

TEST(ExtractTest, JoinPredicateNoted) {
  auto r = Extract(
      "$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]",
      "ORDERS", "ORDDOC", {"order"});
  EXPECT_EQ(ValuePredicateCount(r), 0);
  EXPECT_TRUE(HasNoteContaining(r, "join"));
}

// ----- Eligibility-level tests (CheckEligibility directly) ------------------

TEST(EligibilityTest, TypeRules) {
  auto dbl = XmlIndex::Create("d", "//lineitem/@price",
                              IndexValueType::kDouble);
  auto str = XmlIndex::Create("s", "//lineitem/@price",
                              IndexValueType::kVarchar);
  ASSERT_TRUE(dbl.ok() && str.ok());

  auto numeric = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > 100] return $i",
      "ORDERS", "ORDDOC");
  auto string_cmp = Extract(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > \"100\"] return $i",
      "ORDERS", "ORDDOC");
  const ExtractedPredicate* np = nullptr;
  for (const auto& p : numeric.predicates) {
    if (p.has_value) np = &p;
  }
  const ExtractedPredicate* sp = nullptr;
  for (const auto& p : string_cmp.predicates) {
    if (p.has_value) sp = &p;
  }
  ASSERT_NE(np, nullptr);
  ASSERT_NE(sp, nullptr);

  EXPECT_TRUE(CheckEligibility(*dbl, *np).eligible);
  EXPECT_FALSE(CheckEligibility(*str, *np).eligible);  // §3.1: 10E3 = 1000
  EXPECT_TRUE(CheckEligibility(*str, *sp).eligible);
  EXPECT_FALSE(CheckEligibility(*dbl, *sp).eligible);  // '20 USD' missing
}

// ----- EXPLAIN-level integration --------------------------------------------

class ExplainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    Exec("INSERT INTO orders VALUES (1, "
         "'<order><custid>7</custid><lineitem price=\"150\"/></order>')");
    Exec("CREATE INDEX li_price ON orders(orddoc) "
         "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
  }
  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
  }
  std::string Explain(const std::string& q) {
    auto r = db_.ExplainXQuery(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : "";
  }
  Database db_;
};

TEST_F(ExplainFixture, Query1UsesIndex) {
  std::string plan = Explain(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price>100] return $i");
  EXPECT_NE(plan.find("XML INDEX RANGE SCAN LI_PRICE"), std::string::npos)
      << plan;
}

TEST_F(ExplainFixture, Query2CannotUseIndex) {
  std::string plan = Explain(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@*>100] return $i");
  EXPECT_EQ(plan.find("INDEX RANGE SCAN"), std::string::npos) << plan;
  EXPECT_NE(plan.find("does not contain"), std::string::npos) << plan;
}

TEST_F(ExplainFixture, NotEqualsIneligibleOnDoubleIndex) {
  // '!=' selects NaN and uncastable values — exactly the entries a DOUBLE
  // index omits (tolerant cast + NaN skip). Serving it from LI_PRICE would
  // under-include, so eligibility must refuse (Definition 1).
  std::string plan = Explain(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price != 100] return $i");
  EXPECT_EQ(plan.find("INDEX RANGE SCAN"), std::string::npos) << plan;
  EXPECT_NE(plan.find("'!='"), std::string::npos) << plan;
}

TEST_F(ExplainFixture, NotEqualsEligibleOnVarcharIndex) {
  // A VARCHAR index contains every node on the path (string cast never
  // fails), so '!=' as a *string* comparison may be served from it.
  Exec("CREATE INDEX li_price_s ON orders(orddoc) "
       "USING XMLPATTERN '//lineitem/@price' AS SQL VARCHAR(20)");
  std::string plan = Explain(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price != \"100\"] return $i");
  EXPECT_NE(plan.find("LI_PRICE_S"), std::string::npos) << plan;
}

TEST_F(ExplainFixture, Query3StringLiteralIneligible) {
  std::string plan = Explain(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > \"100\"] return $i");
  EXPECT_EQ(plan.find("INDEX RANGE SCAN"), std::string::npos) << plan;
}

TEST_F(ExplainFixture, Query7DirectPathUsesIndex) {
  std::string plan = Explain(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]");
  EXPECT_NE(plan.find("XML INDEX RANGE SCAN LI_PRICE"), std::string::npos)
      << plan;
}

TEST_F(ExplainFixture, SqlExplainShowsContextNotes) {
  auto select_list = db_.ExplainSql(
      "SELECT XMLQUERY('$o//lineitem[@price > 100]' passing orddoc as "
      "\"o\") FROM orders");
  ASSERT_TRUE(select_list.ok());
  EXPECT_NE(select_list->find("SELECT list"), std::string::npos)
      << *select_list;
  EXPECT_NE(select_list->find("TABLE SCAN"), std::string::npos);

  auto exists = db_.ExplainSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 100]' passing orddoc as \"o\")");
  ASSERT_TRUE(exists.ok());
  EXPECT_NE(exists->find("XML INDEX RANGE SCAN LI_PRICE"),
            std::string::npos);

  auto boolean_trap = db_.ExplainSql(
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$o//lineitem/@price > 100' passing orddoc as \"o\")");
  ASSERT_TRUE(boolean_trap.ok());
  EXPECT_NE(boolean_trap->find("boolean"), std::string::npos)
      << *boolean_trap;
  EXPECT_NE(boolean_trap->find("TABLE SCAN"), std::string::npos);
}

TEST_F(ExplainFixture, PrefilterPreservesResults) {
  // Definition 1, checked empirically: with and without the index, Query 1
  // returns identical results. Load a few more documents first.
  Exec("INSERT INTO orders VALUES (2, "
       "'<order><custid>8</custid><lineitem price=\"50\"/></order>')");
  Exec("INSERT INTO orders VALUES (3, "
       "'<order><custid>9</custid><note/></order>')");
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price>100] return $i";
  auto with_index = db_.ExecuteXQuery(q);
  ASSERT_TRUE(with_index.ok());
  EXPECT_EQ(with_index->rows.size(), 1u);
  EXPECT_GT(with_index->stats.index_docs_returned, 0);

  Database plain;  // Same data, no index.
  ASSERT_TRUE(
      plain.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)")
          .ok());
  ASSERT_TRUE(plain
                  .ExecuteSql("INSERT INTO orders VALUES (1, "
                              "'<order><custid>7</custid>"
                              "<lineitem price=\"150\"/></order>')")
                  .ok());
  ASSERT_TRUE(plain
                  .ExecuteSql("INSERT INTO orders VALUES (2, "
                              "'<order><custid>8</custid>"
                              "<lineitem price=\"50\"/></order>')")
                  .ok());
  auto without_index = plain.ExecuteXQuery(q);
  ASSERT_TRUE(without_index.ok());
  EXPECT_EQ(without_index->rows, with_index->rows);
}


TEST(CostModelTest, UnselectiveProbeFallsBackToScan) {
  // Build a collection big enough for the cost model to engage (the
  // threshold is 1000 index entries).
  Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)").ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE INDEX li_price ON orders(orddoc) USING "
                            "XMLPATTERN '//lineitem/@price' AS SQL DOUBLE")
                  .ok());
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO orders VALUES (" +
                              std::to_string(i) +
                              ", '<order><lineitem price=\"" +
                              std::to_string(i % 1000) + "\"/></order>')")
                    .ok());
  }
  // Selective probe: index range scan.
  auto selective = db.ExplainXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 990]");
  ASSERT_TRUE(selective.ok());
  EXPECT_NE(selective->find("XML INDEX RANGE SCAN"), std::string::npos)
      << *selective;
  // Unselective probe (covers ~99% of the index): cost-based scan.
  auto unselective = db.ExplainXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 5]");
  ASSERT_TRUE(unselective.ok());
  EXPECT_EQ(unselective->find("XML INDEX RANGE SCAN"), std::string::npos)
      << *unselective;
  EXPECT_NE(unselective->find("cost"), std::string::npos) << *unselective;
  // Results identical either way.
  auto a = db.ExecuteXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 5]");
  ASSERT_TRUE(a.ok());
  // prices 6..999 once (994) plus the 6..199 repeats (194).
  EXPECT_EQ(a->rows.size(), 1188u);
}

}  // namespace
}  // namespace xqdb
