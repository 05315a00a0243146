// Static type & cardinality inference tests (analysis/static_types.h,
// DESIGN.md §13): the knob grammar, the cardinality lattice, the pure type
// algebra (dead branches, impossible casts, empty-operand comparisons,
// aggregates over nothing), the DataGuide-as-type-oracle path rule with
// its emptiness witnesses, and the execution-time staleness gate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/static_types.h"
#include "core/database.h"
#include "xquery/parser.h"

namespace xqdb {
namespace {

StaticQueryFacts InferXq(const std::string& query,
                         const Catalog* catalog = nullptr) {
  auto parsed = ParseXQuery(query);
  EXPECT_TRUE(parsed.ok()) << query << " => " << parsed.status().ToString();
  if (!parsed.ok()) return {};
  return InferStaticTypes(*parsed->body, catalog, {});
}

int CountFacts(const StaticQueryFacts& f, StaticFact::Kind kind) {
  int n = 0;
  for (const StaticFact& fact : f.facts) {
    if (fact.kind == kind) ++n;
  }
  return n;
}

const StaticFact* FindFact(const StaticQueryFacts& f, StaticFact::Kind kind) {
  for (const StaticFact& fact : f.facts) {
    if (fact.kind == kind) return &fact;
  }
  return nullptr;
}

// ----- Cardinality lattice --------------------------------------------------

TEST(StaticTypeTest, CardinalityNames) {
  StaticType t;
  t.card_min = 0;
  t.card_max = 0;
  EXPECT_EQ(t.CardinalityName(), "empty-sequence()");
  EXPECT_TRUE(t.IsEmpty());
  t.card_min = 1;
  t.card_max = 1;
  EXPECT_EQ(t.CardinalityName(), "exactly-one");
  EXPECT_TRUE(t.NonEmpty());
  t.card_min = 0;
  t.card_max = 1;
  EXPECT_EQ(t.CardinalityName(), "zero-or-one");
  t.card_min = 3;
  t.card_max = 3;
  EXPECT_EQ(t.CardinalityName(), "exactly-3");
  t.card_min = 0;
  t.card_max = -1;
  EXPECT_EQ(t.CardinalityName(), "zero-or-more");
}

// ----- Pure type algebra (no catalog) ---------------------------------------

TEST(StaticInferTest, LiteralIsExactlyOne) {
  auto f = InferXq("42");
  EXPECT_EQ(f.body_type.CardinalityName(), "exactly-one");
  EXPECT_FALSE(f.body_type.can_raise);
  EXPECT_EQ(f.body_type.const_truth, std::optional<bool>(true));
}

TEST(StaticInferTest, EmptyParensAreEmptySequence) {
  auto f = InferXq("()");
  EXPECT_TRUE(f.body_type.IsEmpty());
  EXPECT_FALSE(f.body_type.can_raise);
  EXPECT_EQ(f.body_type.const_truth, std::optional<bool>(false));
}

TEST(StaticInferTest, RangeFoldsToConstantCardinality) {
  auto f = InferXq("1 to 5");
  EXPECT_EQ(f.body_type.CardinalityName(), "exactly-5");
  EXPECT_FALSE(f.body_type.can_raise);
}

TEST(StaticInferTest, CountOverConstantRangeIsTrue) {
  auto f = InferXq("fn:count(1 to 5)");
  EXPECT_EQ(f.body_type.const_truth, std::optional<bool>(true));
  EXPECT_FALSE(f.body_type.can_raise);
}

TEST(StaticInferTest, IfWithConstantConditionReportsDeadBranch) {
  auto f = InferXq("if (fn:false()) then 1 else 2");
  // fn:false() is an unknown-function to the inferencer only if not
  // special-cased; the literal form below must fire regardless.
  auto g = InferXq("if (1 = ()) then 1 else 2");
  EXPECT_GE(CountFacts(g, StaticFact::Kind::kDeadBranch), 1);
  EXPECT_GE(CountFacts(g, StaticFact::Kind::kAlwaysFalseCompare), 1);
  // The false condition selects the else branch: exactly-one.
  EXPECT_EQ(g.body_type.CardinalityName(), "exactly-one");
  (void)f;
}

TEST(StaticInferTest, ImpossibleCastReportsFact) {
  auto f = InferXq("\"not-a-number\" cast as xs:integer");
  const StaticFact* fact =
      FindFact(f, StaticFact::Kind::kImpossibleCast);
  ASSERT_NE(fact, nullptr);
  EXPECT_NE(fact->detail.find("FORG0001"), std::string::npos);
  // The expression still types as raising: folding it would be unsound.
  EXPECT_TRUE(f.body_type.can_raise);
}

TEST(StaticInferTest, PossibleCastIsClean) {
  auto f = InferXq("\"17\" cast as xs:integer");
  EXPECT_EQ(CountFacts(f, StaticFact::Kind::kImpossibleCast), 0);
  EXPECT_FALSE(f.body_type.can_raise);
}

TEST(StaticInferTest, CompareAgainstEmptyIsAlwaysFalse) {
  auto f = InferXq("3 = ()");
  const StaticFact* fact =
      FindFact(f, StaticFact::Kind::kAlwaysFalseCompare);
  ASSERT_NE(fact, nullptr);
  EXPECT_EQ(f.body_type.const_truth, std::optional<bool>(false));
  EXPECT_FALSE(f.body_type.can_raise);
}

TEST(StaticInferTest, SumOverEmptyReportsAggregateFact) {
  auto f = InferXq("fn:sum(())");
  EXPECT_GE(CountFacts(f, StaticFact::Kind::kEmptyAggregate), 1);
  EXPECT_EQ(f.body_type.CardinalityName(), "exactly-one");  // the 0
  EXPECT_FALSE(f.body_type.can_raise);
}

TEST(StaticInferTest, AvgOverEmptyIsEmptySequence) {
  auto f = InferXq("fn:avg(())");
  EXPECT_GE(CountFacts(f, StaticFact::Kind::kEmptyAggregate), 1);
  EXPECT_TRUE(f.body_type.IsEmpty());
}

TEST(StaticInferTest, ForOverEmptySequenceIsDead) {
  auto f = InferXq("for $x in () return $x + 1");
  EXPECT_GE(CountFacts(f, StaticFact::Kind::kDeadBranch), 1);
  EXPECT_TRUE(f.body_type.IsEmpty());
}

TEST(StaticInferTest, ExistsOverLiteralIsTrue) {
  auto f = InferXq("fn:exists(42)");
  EXPECT_EQ(f.body_type.const_truth, std::optional<bool>(true));
  EXPECT_FALSE(f.body_type.can_raise);
}

TEST(StaticInferTest, UnknownVariableProvesNothing) {
  // An unresolved variable (e.g. a PASSING arg the planner could not bind)
  // must infer 0..∞ and never support a fold.
  auto f = InferXq("fn:exists($unbound/order)");
  EXPECT_FALSE(f.body_type.const_truth.has_value());
}

// ----- DataGuide as type oracle ---------------------------------------------

class StaticDbFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    for (int o = 0; o < 6; ++o) {
      Exec("INSERT INTO orders VALUES (" + std::to_string(o) +
           ", '<order><custid>" + std::to_string(o) +
           "</custid><lineitem price=\"" + std::to_string(100 * o) +
           "\"/></order>')");
    }
  }
  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << " => " << rs.status().ToString();
  }
  StaticQueryFacts Infer(const std::string& query) {
    return InferXq(query, &db_.catalog());
  }
  Database db_;
};

TEST_F(StaticDbFixture, LivePathIsNotEmpty) {
  auto f = Infer("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/custid");
  EXPECT_EQ(CountFacts(f, StaticFact::Kind::kEmptyPath), 0);
  EXPECT_FALSE(f.body_type.IsEmpty());
  EXPECT_TRUE(f.witnesses.empty());
}

TEST_F(StaticDbFixture, DeadPathProvesEmptyWithWitness) {
  auto f = Infer("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/nosuch");
  const StaticFact* fact = FindFact(f, StaticFact::Kind::kEmptyPath);
  ASSERT_NE(fact, nullptr);
  EXPECT_TRUE(f.body_type.IsEmpty());
  // Table names are recorded as spelled in the xmlcolumn literal; the
  // verification gate resolves them case-insensitively like the catalog.
  EXPECT_EQ(fact->table, "ORDERS");
  EXPECT_TRUE(fact->collection_populated);
  ASSERT_EQ(f.witnesses.size(), 1u);
  EXPECT_EQ(f.witnesses[0].table, "ORDERS");
  EXPECT_NE(f.witnesses[0].nfa, nullptr);
}

TEST_F(StaticDbFixture, TypoSuggestsNearestLivePath) {
  auto f = Infer("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/custd");
  const StaticFact* fact = FindFact(f, StaticFact::Kind::kEmptyPath);
  ASSERT_NE(fact, nullptr);
  EXPECT_EQ(fact->suggestion, "/order/custid");
}

TEST_F(StaticDbFixture, DescendantDeadPathIsEmptyToo) {
  auto f = Infer(
      "fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//shippingaddress)");
  EXPECT_GE(CountFacts(f, StaticFact::Kind::kEmptyPath), 1);
  // fn:count of a provably empty sequence is the constant 0: EBV false.
  EXPECT_EQ(f.body_type.const_truth, std::optional<bool>(false));
}

TEST_F(StaticDbFixture, EmptyCollectionFlagsUnpopulated) {
  Exec("CREATE TABLE fresh (id INTEGER, doc XML)");
  auto f = Infer("db2-fn:xmlcolumn('FRESH.DOC')/anything");
  const StaticFact* fact = FindFact(f, StaticFact::Kind::kEmptyPath);
  ASSERT_NE(fact, nullptr);
  EXPECT_FALSE(fact->collection_populated);
  EXPECT_TRUE(fact->suggestion.empty());
}

TEST_F(StaticDbFixture, WitnessVerifiesUntilDmlInsertsThePath) {
  auto f = Infer("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/giftwrap");
  ASSERT_EQ(f.witnesses.size(), 1u);
  EXPECT_TRUE(VerifyEmptyWitnesses(db_.catalog(), f.witnesses));
  // DML makes the proof stale: the gate must now reject it.
  Exec("INSERT INTO orders VALUES (99, "
       "'<order><custid>9</custid><giftwrap>yes</giftwrap></order>')");
  EXPECT_FALSE(VerifyEmptyWitnesses(db_.catalog(), f.witnesses));
}

TEST_F(StaticDbFixture, NullNfaNeverVerifies) {
  StaticEmptyWitness w;
  w.table = "orders";
  w.column = "orddoc";
  EXPECT_FALSE(VerifyEmptyWitnesses(db_.catalog(), {w}));
}

TEST_F(StaticDbFixture, DroppedTableNeverVerifies) {
  auto f = Infer("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/giftwrap");
  ASSERT_EQ(f.witnesses.size(), 1u);
  std::vector<StaticEmptyWitness> w = f.witnesses;
  w[0].table = "not_a_table";
  EXPECT_FALSE(VerifyEmptyWitnesses(db_.catalog(), w));
}

}  // namespace
}  // namespace xqdb
