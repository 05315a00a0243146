#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace xqdb {
namespace {

/// Test harness: parses documents, binds them as $d1, $d2, ..., evaluates
/// the query, and exposes the result.
class XQueryFixture : public ::testing::Test {
 protected:
  void Bind(const std::string& var, const std::string& xml) {
    auto doc = ParseXml(xml);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    docs_.push_back(std::move(*doc));
    bound_.emplace_back(var,
                        NodeHandle{docs_.back().get(), docs_.back()->root()});
  }

  Result<Sequence> Eval(const std::string& query) {
    auto parsed = ParseXQuery(query);
    if (!parsed.ok()) return parsed.status();
    parsed_ = std::make_unique<ParsedQuery>(std::move(*parsed));
    runtime_ = std::make_unique<QueryRuntime>();
    evaluator_ = std::make_unique<Evaluator>(&parsed_->static_context,
                                             nullptr, runtime_.get());
    for (const auto& [var, handle] : bound_) {
      evaluator_->BindVariable(var, Sequence{Item(handle)});
    }
    return evaluator_->Eval(*parsed_->body);
  }

  /// Serializes each item of the result.
  std::vector<std::string> EvalStrings(const std::string& query) {
    auto result = Eval(query);
    EXPECT_TRUE(result.ok()) << query << " => " << result.status().ToString();
    std::vector<std::string> out;
    if (!result.ok()) return out;
    for (const Item& item : *result) {
      out.push_back(item.is_node() ? SerializeXml(item.node())
                                   : item.atomic().Lexical());
    }
    return out;
  }

  std::string EvalOne(const std::string& query) {
    auto rows = EvalStrings(query);
    EXPECT_EQ(rows.size(), 1u) << query;
    return rows.empty() ? "" : rows[0];
  }

  std::vector<std::unique_ptr<Document>> docs_;
  std::vector<std::pair<std::string, NodeHandle>> bound_;
  std::unique_ptr<ParsedQuery> parsed_;
  std::unique_ptr<QueryRuntime> runtime_;
  std::unique_ptr<Evaluator> evaluator_;
};

TEST_F(XQueryFixture, Literals) {
  EXPECT_EQ(EvalOne("42"), "42");
  EXPECT_EQ(EvalOne("3.5"), "3.5");
  EXPECT_EQ(EvalOne("\"hi\""), "hi");
  EXPECT_EQ(EvalOne("'it''s'"), "it's");
}

TEST_F(XQueryFixture, Arithmetic) {
  EXPECT_EQ(EvalOne("1 + 2 * 3"), "7");
  EXPECT_EQ(EvalOne("(1 + 2) * 3"), "9");
  EXPECT_EQ(EvalOne("7 idiv 2"), "3");
  EXPECT_EQ(EvalOne("7 mod 2"), "1");
  EXPECT_EQ(EvalOne("1 div 2"), "0.5");
  EXPECT_EQ(EvalOne("-(3)"), "-3");
}

TEST_F(XQueryFixture, EmptySequencePropagatesThroughArithmetic) {
  EXPECT_TRUE(EvalStrings("() + 1").empty());
}

TEST_F(XQueryFixture, SequencesFlatten) {
  auto rows = EvalStrings("(1, (2, 3), (), 4)");
  EXPECT_EQ(rows, (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST_F(XQueryFixture, RangeExpression) {
  auto rows = EvalStrings("1 to 4");
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_TRUE(EvalStrings("3 to 2").empty());
}

TEST_F(XQueryFixture, PathNavigation) {
  Bind("d", "<order><custid>17</custid>"
            "<lineitem price=\"99.50\"><price>99.50</price></lineitem>"
            "<lineitem price=\"150\"><price>150</price></lineitem></order>");
  EXPECT_EQ(EvalOne("$d/order/custid"), "<custid>17</custid>");
  EXPECT_EQ(EvalStrings("$d/order/lineitem").size(), 2u);
  EXPECT_EQ(EvalStrings("$d//price").size(), 2u);
  EXPECT_EQ(EvalStrings("$d//@price").size(), 2u);
  EXPECT_EQ(EvalStrings("$d/order/lineitem/@price").size(), 2u);
  EXPECT_TRUE(EvalStrings("$d/nosuch").empty());
}

TEST_F(XQueryFixture, PathPredicates) {
  Bind("d", "<order>"
            "<lineitem price=\"99.50\"/><lineitem price=\"150\"/>"
            "</order>");
  EXPECT_EQ(EvalStrings("$d/order/lineitem[@price > 100]").size(), 1u);
  EXPECT_EQ(EvalStrings("$d/order/lineitem[1]").size(), 1u);
  EXPECT_EQ(EvalOne("$d/order/lineitem[2]/@price/data(.)"), "150");
  EXPECT_EQ(EvalStrings("$d/order[lineitem/@price > 100]").size(), 1u);
  EXPECT_TRUE(EvalStrings("$d/order[lineitem/@price > 200]").empty());
}

TEST_F(XQueryFixture, DocumentOrderAndDedup) {
  Bind("d", "<a><b><c/></b><b><c/></b></a>");
  // Both paths to c; union dedups by identity in document order.
  auto rows = EvalStrings("($d//c, $d//c)");
  EXPECT_EQ(rows.size(), 4u);  // Sequence concat does NOT dedup...
  rows = EvalStrings("$d//c | $d//c");
  EXPECT_EQ(rows.size(), 2u);  // ...but union does.
}

TEST_F(XQueryFixture, TextNodeStep) {
  Bind("d", "<order><price>99.50</price><price>99.50<x/>USD</price>"
            "</order>");
  auto rows = EvalStrings("$d/order/price/text()");
  // First price has one text node; the second has two (around <x/>).
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(EvalStrings("$d/order/price[text() = \"99.50\"]").size(), 2u);
}

TEST_F(XQueryFixture, AttributesNotReachedByChildAxis) {
  Bind("d", "<a x=\"1\"><b y=\"2\"/></a>");
  EXPECT_TRUE(EvalStrings("$d//node()[fn:local-name(.) = \"x\"]").empty());
  EXPECT_EQ(EvalStrings("$d//@*").size(), 2u);
}

TEST_F(XQueryFixture, FlworForAndWhere) {
  Bind("d", "<o><li p=\"5\"/><li p=\"15\"/><li p=\"25\"/></o>");
  auto rows = EvalStrings(
      "for $x in $d/o/li where $x/@p > 10 return $x/@p/data(.)");
  EXPECT_EQ(rows, (std::vector<std::string>{"15", "25"}));
}

TEST_F(XQueryFixture, FlworLetBindsWholeSequence) {
  Bind("d", "<o><li p=\"5\"/><li p=\"15\"/></o>");
  EXPECT_EQ(EvalOne("let $x := $d/o/li return fn:count($x)"), "2");
  // let over an empty sequence still produces one binding tuple.
  EXPECT_EQ(EvalOne("let $x := $d/o/nothing return fn:count($x)"), "0");
}

TEST_F(XQueryFixture, FlworOrderBy) {
  Bind("d", "<o><li p=\"15\"/><li p=\"5\"/><li p=\"25\"/></o>");
  auto rows = EvalStrings(
      "for $x in $d/o/li order by $x/@p/xs:double(.) return "
      "$x/@p/data(.)");
  EXPECT_EQ(rows, (std::vector<std::string>{"5", "15", "25"}));
  rows = EvalStrings(
      "for $x in $d/o/li order by $x/@p/xs:double(.) descending return "
      "$x/@p/data(.)");
  EXPECT_EQ(rows, (std::vector<std::string>{"25", "15", "5"}));
}

TEST_F(XQueryFixture, FlworOrderByNanKeySortsLeast) {
  // XQuery §3.8.3: for order by, NaN equals itself and is less than every
  // other non-empty value — it must form its own equivalence class, not
  // compare "equal" to everything (which breaks strict weak ordering and
  // is UB for the underlying stable sort).
  Bind("d", "<o><li p=\"15\"/><li p=\"NaN\"/><li p=\"5\"/><li p=\"NaN\"/>"
            "<li p=\"25\"/></o>");
  auto rows = EvalStrings(
      "for $x in $d/o/li order by $x/@p/xs:double(.) return "
      "$x/@p/data(.)");
  EXPECT_EQ(rows,
            (std::vector<std::string>{"NaN", "NaN", "5", "15", "25"}));
  rows = EvalStrings(
      "for $x in $d/o/li order by $x/@p/xs:double(.) descending return "
      "$x/@p/data(.)");
  EXPECT_EQ(rows,
            (std::vector<std::string>{"25", "15", "5", "NaN", "NaN"}));
}

TEST_F(XQueryFixture, FlworOrderByEmptyLessThanNan) {
  // Empty-least ordering places the empty key below even NaN.
  Bind("d", "<o><li p=\"NaN\"/><li/><li p=\"10\"/></o>");
  auto rows = EvalStrings(
      "for $x in $d/o/li order by $x/@p/xs:double(.) return fn:count($x/@p)");
  EXPECT_EQ(rows, (std::vector<std::string>{"0", "1", "1"}));
}

TEST_F(XQueryFixture, QuantifiedExpressions) {
  Bind("d", "<o><li p=\"5\"/><li p=\"15\"/></o>");
  EXPECT_EQ(EvalOne("some $x in $d/o/li satisfies $x/@p > 10"), "true");
  EXPECT_EQ(EvalOne("every $x in $d/o/li satisfies $x/@p > 10"), "false");
  EXPECT_EQ(EvalOne("some $x in $d/o/nothing satisfies fn:true()"), "false");
  EXPECT_EQ(EvalOne("every $x in $d/o/nothing satisfies fn:false()"),
            "true");
}

TEST_F(XQueryFixture, IfThenElse) {
  EXPECT_EQ(EvalOne("if (1 < 2) then \"y\" else \"n\""), "y");
  EXPECT_EQ(EvalOne("if (()) then \"y\" else \"n\""), "n");
}

TEST_F(XQueryFixture, GeneralVsValueComparison) {
  Bind("d", "<o><p>50</p><p>250</p></o>");
  // Existential general comparison.
  EXPECT_EQ(EvalOne("$d/o/p > 100 and $d/o/p < 200"), "true");
  // Value comparison demands singletons.
  auto r = Eval("$d/o/p gt 100");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST_F(XQueryFixture, NodeIdentityIs) {
  Bind("d", "<a><b/></a>");
  EXPECT_EQ(EvalOne("$d/a/b is $d/a/b"), "true");
  EXPECT_EQ(EvalOne("$d/a is $d/a/b"), "false");
  // Constructed nodes get fresh identities: <x>5</x> is <x>5</x> is false.
  EXPECT_EQ(EvalOne("<x>5</x> is <x>5</x>"), "false");
}

TEST_F(XQueryFixture, SetOperations) {
  Bind("d", "<a><b/><c/><d/></a>");
  EXPECT_EQ(EvalStrings("$d/a/* except $d/a/c").size(), 2u);
  EXPECT_EQ(EvalStrings("$d/a/b | $d/a/c").size(), 2u);
  EXPECT_EQ(EvalStrings("$d/a/* intersect $d/a/c").size(), 1u);
}

TEST_F(XQueryFixture, Constructors) {
  Bind("d", "<o><li p=\"7\"/></o>");
  EXPECT_EQ(EvalOne("<r>{$d/o/li}</r>"), "<r><li p=\"7\"/></r>");
  EXPECT_EQ(EvalOne("<r a=\"{1+1}\"/>"), "<r a=\"2\"/>");
  EXPECT_EQ(EvalOne("<r>{1, 2}</r>"), "<r>1 2</r>");
  EXPECT_EQ(EvalOne("<r>{\"a\"}{\"b\"}</r>"), "<r>ab</r>");
  EXPECT_EQ(EvalOne("<r>text</r>"), "<r>text</r>");
}

TEST_F(XQueryFixture, ConstructorAttributeFromContent) {
  Bind("d", "<o><li p=\"7\" q=\"2\"/></o>");
  // Attribute nodes at the start of content become attributes.
  EXPECT_EQ(EvalOne("<r>{$d/o/li/@p}</r>"), "<r p=\"7\"/>");
  // Duplicate attribute: XQDY0025.
  auto r = Eval("<r p=\"1\">{$d/o/li/@p}</r>");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDynamicError);
}

TEST_F(XQueryFixture, BuiltinFunctions) {
  Bind("d", "<o><li p=\"5\"/><li p=\"15\"/></o>");
  EXPECT_EQ(EvalOne("fn:count($d/o/li)"), "2");
  EXPECT_EQ(EvalOne("fn:exists($d/o/li)"), "true");
  EXPECT_EQ(EvalOne("fn:empty($d/o/li)"), "false");
  EXPECT_EQ(EvalOne("fn:not(fn:false())"), "true");
  EXPECT_EQ(EvalOne("fn:string($d/o/li[1]/@p)"), "5");
  EXPECT_EQ(EvalOne("fn:concat(\"a\", \"b\", \"c\")"), "abc");
  EXPECT_EQ(EvalOne("fn:string-join((\"a\",\"b\"), \"-\")"), "a-b");
  EXPECT_EQ(EvalOne("fn:sum($d/o/li/@p)"), "20");
  EXPECT_EQ(EvalOne("fn:max($d/o/li/@p)"), "15");
  EXPECT_EQ(EvalOne("fn:min($d/o/li/@p)"), "5");
  EXPECT_EQ(EvalOne("fn:avg($d/o/li/@p)"), "10");
  EXPECT_EQ(EvalOne("fn:contains(\"hello\", \"ell\")"), "true");
  EXPECT_EQ(EvalOne("fn:starts-with(\"hello\", \"he\")"), "true");
  EXPECT_EQ(EvalOne("fn:substring(\"hello\", 2, 3)"), "ell");
  EXPECT_EQ(EvalOne("fn:normalize-space(\"  a   b \")"), "a b");
  EXPECT_EQ(EvalOne("fn:number(\"1e2\")"), "100");
  // 1 and "1" are incomparable types, hence distinct values.
  EXPECT_EQ(EvalStrings("fn:distinct-values((1, 2, 1, \"1\"))").size(), 3u);
}

TEST_F(XQueryFixture, SubstringFollowsSpecRounding) {
  // F&O §5.4.3: characters at positions p with
  // round(start) <= p < round(start) + round(length); round is half-up.
  EXPECT_EQ(EvalOne("fn:substring(\"motor car\", 6)"), " car");
  EXPECT_EQ(EvalOne("fn:substring(\"metadata\", 4, 7)"), "adata");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", 1.5, 2.6)"), "234");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", 0, 3)"), "12");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", 5, -3)"), "");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", -3, 5)"), "1");
}

TEST_F(XQueryFixture, SubstringNanAndInfinityArgs) {
  // The spec's own special-value examples. A NaN bound fails every
  // positional comparison (never UB: the old code fed NaN to llround).
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", xs:double(\"NaN\"))"), "");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", 1, xs:double(\"NaN\"))"), "");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", -42, xs:double(\"INF\"))"),
            "12345");
  // -INF + INF = NaN, so the unbounded-looking pair selects nothing.
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", xs:double(\"-INF\"), "
                    "xs:double(\"INF\"))"),
            "");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", xs:double(\"-INF\"))"), "12345");
  EXPECT_EQ(EvalOne("fn:substring(\"12345\", xs:double(\"INF\"))"), "");
}

TEST_F(XQueryFixture, CastFunctionsAndCastAs) {
  EXPECT_EQ(EvalOne("xs:double(\"99.50\")"), "99.5");
  EXPECT_EQ(EvalOne("xs:integer(\"17\")"), "17");
  EXPECT_EQ(EvalOne("\"17\" cast as xs:integer"), "17");
  EXPECT_EQ(EvalOne("xs:date(\"2006-09-12\")"), "2006-09-12");
  auto r = Eval("xs:double(\"20 USD\")");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCastError);
  // Constructor functions accept the empty sequence.
  EXPECT_TRUE(EvalStrings("xs:double(())").empty());
}

TEST_F(XQueryFixture, CastInPathStep) {
  Bind("d", "<o><custid>17</custid></o>");
  // Tip 1's notation: $i/custid/xs:double(.).
  EXPECT_EQ(EvalOne("$d/o/custid/xs:double(.)"), "17");
}

TEST_F(XQueryFixture, PositionAndLast) {
  Bind("d", "<o><li/><li/><li/></o>");
  EXPECT_EQ(EvalStrings("$d/o/li[fn:position() = 2]").size(), 1u);
  EXPECT_EQ(EvalStrings("$d/o/li[fn:last()]").size(), 1u);
}

TEST_F(XQueryFixture, UnboundVariableIsError) {
  auto r = Eval("$nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDynamicError);
}

TEST_F(XQueryFixture, ParentAxis) {
  Bind("d", "<a><b><c/></b></a>");
  EXPECT_EQ(EvalOne("fn:local-name($d//c/..)"), "b");
}

TEST_F(XQueryFixture, NamespaceAwarePaths) {
  Bind("d", "<order xmlns=\"urn:o\"><custid>1</custid></order>");
  // Without a default namespace declaration the path misses.
  EXPECT_TRUE(EvalStrings("$d/order").empty());
  EXPECT_EQ(EvalStrings("declare default element namespace \"urn:o\"; "
                        "$d/order/custid")
                .size(),
            1u);
  EXPECT_EQ(EvalStrings("$d/*:order").size(), 1u);
}

TEST_F(XQueryFixture, CommentsInQueries) {
  EXPECT_EQ(EvalOne("1 (: comment (: nested :) :) + 1"), "2");
}


TEST_F(XQueryFixture, StringFunctions) {
  EXPECT_EQ(EvalOne("fn:upper-case(\"aBc\")"), "ABC");
  EXPECT_EQ(EvalOne("fn:lower-case(\"aBc\")"), "abc");
  EXPECT_EQ(EvalOne("fn:string-length(\"abcd\")"), "4");
  EXPECT_EQ(EvalOne("fn:string-length(())"), "0");
  EXPECT_EQ(EvalOne("fn:substring-before(\"a=b\", \"=\")"), "a");
  EXPECT_EQ(EvalOne("fn:substring-after(\"a=b\", \"=\")"), "b");
  EXPECT_EQ(EvalOne("fn:substring-before(\"ab\", \"x\")"), "");
  EXPECT_EQ(EvalOne("fn:ends-with(\"hello\", \"llo\")"), "true");
  EXPECT_EQ(EvalOne("fn:ends-with(\"hello\", \"he\")"), "false");
  EXPECT_EQ(EvalOne("fn:translate(\"abcabc\", \"ab\", \"AB\")"),
            "ABcABc");
  // Characters with no mapping are deleted.
  EXPECT_EQ(EvalOne("fn:translate(\"abc\", \"abc\", \"x\")"), "x");
}

TEST_F(XQueryFixture, NumericFunctions) {
  EXPECT_EQ(EvalOne("fn:abs(-3)"), "3");
  EXPECT_EQ(EvalOne("fn:abs(-2.5)"), "2.5");
  EXPECT_EQ(EvalOne("fn:floor(2.7)"), "2");
  EXPECT_EQ(EvalOne("fn:ceiling(2.1)"), "3");
  EXPECT_EQ(EvalOne("fn:round(2.5)"), "3");
  EXPECT_EQ(EvalOne("fn:round(-2.5)"), "-2");  // round half toward +inf
  EXPECT_TRUE(EvalStrings("fn:abs(())").empty());
}

TEST_F(XQueryFixture, SequenceFunctions) {
  auto rows = EvalStrings("fn:reverse((1, 2, 3))");
  EXPECT_EQ(rows, (std::vector<std::string>{"3", "2", "1"}));
  rows = EvalStrings("fn:subsequence((1, 2, 3, 4), 2, 2)");
  EXPECT_EQ(rows, (std::vector<std::string>{"2", "3"}));
  // fn:subsequence rounds both arguments with fn:round (half toward +inf):
  // round(1.5)=2, round(2.6)=3 selects positions 2..4.
  rows = EvalStrings("fn:subsequence((1, 2, 3, 4, 5), 1.5, 2.6)");
  EXPECT_EQ(rows, (std::vector<std::string>{"2", "3", "4"}));
  // round(-0.5) = 0 under half-up (std::round would give -1 and admit one
  // fewer item): positions p with 0 <= p < 4.
  rows = EvalStrings("fn:subsequence((1, 2, 3, 4), -0.5, 4)");
  EXPECT_EQ(rows, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_TRUE(
      EvalStrings("fn:subsequence((1, 2, 3), xs:double(\"NaN\"))").empty());
  EXPECT_TRUE(
      EvalStrings("fn:subsequence((1, 2, 3), 1, xs:double(\"NaN\"))").empty());
  rows = EvalStrings("fn:remove((1, 2, 3), 2)");
  EXPECT_EQ(rows, (std::vector<std::string>{"1", "3"}));
  rows = EvalStrings("fn:index-of((10, 20, 10), 10)");
  EXPECT_EQ(rows, (std::vector<std::string>{"1", "3"}));
}

TEST_F(XQueryFixture, CardinalityFunctions) {
  EXPECT_EQ(EvalOne("fn:exactly-one(5)"), "5");
  EXPECT_FALSE(Eval("fn:exactly-one(())").ok());
  EXPECT_FALSE(Eval("fn:exactly-one((1, 2))").ok());
  EXPECT_TRUE(EvalStrings("fn:zero-or-one(())").empty());
  EXPECT_FALSE(Eval("fn:zero-or-one((1, 2))").ok());
  EXPECT_FALSE(Eval("fn:one-or-more(())").ok());
  EXPECT_EQ(EvalStrings("fn:one-or-more((1, 2))").size(), 2u);
}

TEST_F(XQueryFixture, DeepEqual) {
  Bind("d", "<a><b x=\"1\" y=\"2\">t</b><!--c--><b/></a>");
  Bind("e", "<a><b y=\"2\" x=\"1\">t</b><b/></a>");  // attrs reordered,
                                                          // comment absent
  EXPECT_EQ(EvalOne("fn:deep-equal($d/a, $e/a)"), "true");
  EXPECT_EQ(EvalOne("fn:deep-equal($d/a, $e/a/b[1])"), "false");
  EXPECT_EQ(EvalOne("fn:deep-equal((1, 2), (1, 2))"), "true");
  EXPECT_EQ(EvalOne("fn:deep-equal((1, 2), (2, 1))"), "false");
  EXPECT_EQ(EvalOne("fn:deep-equal(<x>1</x>, <x>1</x>)"), "true");
  EXPECT_EQ(EvalOne("fn:deep-equal(<x>1</x>, <x>2</x>)"), "false");
}


TEST_F(XQueryFixture, CastableAs) {
  EXPECT_EQ(EvalOne("\"99.50\" castable as xs:double"), "true");
  EXPECT_EQ(EvalOne("\"20 USD\" castable as xs:double"), "false");
  EXPECT_EQ(EvalOne("\"2006-09-12\" castable as xs:date"), "true");
  EXPECT_EQ(EvalOne("\"nope\" castable as xs:date"), "false");
  EXPECT_EQ(EvalOne("() castable as xs:double"), "false");
  EXPECT_EQ(EvalOne("() castable as xs:double?"), "true");
  EXPECT_EQ(EvalOne("(1, 2) castable as xs:double"), "false");
  // Useful guard idiom for schema-drift data (the paper's postal codes).
  Bind("d", "<addr><postalcode>K1A 0B1</postalcode></addr>");
  EXPECT_EQ(
      EvalOne("if ($d/addr/postalcode castable as xs:double) "
              "then \"numeric\" else \"string\""),
      "string");
}

}  // namespace
}  // namespace xqdb
