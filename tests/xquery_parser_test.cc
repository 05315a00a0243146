// XQuery parser unit tests: AST shapes, prolog handling, and syntax-error
// reporting (errors carry line:column positions).

#include <gtest/gtest.h>

#include <string>

#include "xml/qname.h"
#include "xquery/ast.h"
#include "xquery/parser.h"

namespace xqdb {
namespace {

Result<ParsedQuery> Parse(const std::string& q) { return ParseXQuery(q); }

TEST(XQueryParserTest, NameTestsCompileToPoolIds) {
  auto q = Parse(
      "declare namespace p=\"urn:compile\"; "
      "$d/p:compile_a/*:compile_b/p:*/@*");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& steps = q->body->steps;
  ASSERT_EQ(steps.size(), 5u);
  NamePool* pool = NamePool::Global();
  const NsId p = pool->InternNamespace("urn:compile").value();
  EXPECT_EQ(steps[1].test.name,
            (NameTest{p, pool->InternLocal("compile_a").value()}));
  EXPECT_EQ(steps[2].test.name,
            (NameTest{kAnyName, pool->InternLocal("compile_b").value()}));
  EXPECT_EQ(steps[3].test.name, (NameTest{p, kAnyName}));
  EXPECT_EQ(steps[4].test.name, NameTest{});
  EXPECT_TRUE(steps[4].test.attribute_axis);
  EXPECT_FALSE(steps[3].test.attribute_axis);
}

TEST(XQueryParserTest, FullNamePoolFailsTheCompile) {
  ASSERT_TRUE(Parse("$d/order/custid").ok());
  NamePool::Global()->SetCapacityForTesting(0);
  auto step = Parse("$d/order/never_interned_step_full_pool");
  auto ctor = Parse("<never_interned_ctor_full_pool/>");
  auto known = Parse("$d/order/custid");
  NamePool::Global()->SetCapacityForTesting(NamePool::kCapacity);
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kResourceExhausted);
  ASSERT_FALSE(ctor.ok());
  EXPECT_EQ(ctor.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(known.ok()) << known.status().ToString();
}

TEST(XQueryParserTest, PrologDeclarations) {
  auto q = Parse(
      "declare default element namespace \"urn:d\"; "
      "declare namespace p=\"urn:p\"; "
      "declare construction preserve; "
      "1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->static_context.default_element_namespace(), "urn:d");
  EXPECT_EQ(*q->static_context.ResolvePrefix("p"), "urn:p");
  EXPECT_EQ(q->static_context.construction_mode(),
            StaticContext::ConstructionMode::kPreserve);
}

TEST(XQueryParserTest, BuiltinPrefixesPredeclared) {
  StaticContext sctx;
  EXPECT_TRUE(sctx.ResolvePrefix("xs").has_value());
  EXPECT_TRUE(sctx.ResolvePrefix("fn").has_value());
  EXPECT_TRUE(sctx.ResolvePrefix("xdt").has_value());
  EXPECT_TRUE(sctx.ResolvePrefix("db2-fn").has_value());
  EXPECT_FALSE(sctx.ResolvePrefix("nope").has_value());
}

TEST(XQueryParserTest, FlworShape) {
  auto q = Parse(
      "for $a in 1, $b in 2 let $c := 3 where $a order by $b return $c");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const Expr& e = *q->body;
  ASSERT_EQ(e.kind, ExprKind::kFlwor);
  ASSERT_EQ(e.clauses.size(), 3u);
  EXPECT_EQ(e.clauses[0].kind, FlworClause::Kind::kFor);
  EXPECT_EQ(e.clauses[0].var, "a");
  EXPECT_EQ(e.clauses[1].var, "b");
  EXPECT_EQ(e.clauses[2].kind, FlworClause::Kind::kLet);
  EXPECT_NE(e.where, nullptr);
  EXPECT_EQ(e.order_by.size(), 1u);
}

TEST(XQueryParserTest, PathShapes) {
  auto q = Parse("$d//order/lineitem[@price > 100][2]/product");
  ASSERT_TRUE(q.ok());
  const Expr& e = *q->body;
  ASSERT_EQ(e.kind, ExprKind::kPath);
  // $d, dos::node(), order, lineitem (2 predicates), product.
  ASSERT_EQ(e.steps.size(), 5u);
  EXPECT_FALSE(e.steps[0].is_axis_step);
  EXPECT_EQ(e.steps[1].axis, PathAxis::kDescendantOrSelf);
  EXPECT_EQ(e.steps[3].predicates.size(), 2u);
}

TEST(XQueryParserTest, XmlColumnDesugared) {
  auto q = Parse("db2-fn:xmlcolumn('orders.orddoc')");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->body->kind, ExprKind::kXmlColumn);
  EXPECT_EQ(q->body->table_name, "ORDERS");   // uppercased
  EXPECT_EQ(q->body->column_name, "ORDDOC");
  EXPECT_FALSE(Parse("db2-fn:xmlcolumn($x)").ok());     // must be literal
  EXPECT_FALSE(Parse("db2-fn:xmlcolumn('nodot')").ok());
}

TEST(XQueryParserTest, TypeConstructorsBecomeCasts) {
  auto q = Parse("xs:double(\"1\")");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->body->kind, ExprKind::kCastAs);
  EXPECT_EQ(q->body->cast_target, AtomicType::kDouble);
  auto u = Parse("xdt:untypedAtomic(\"x\")");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->body->cast_target, AtomicType::kUntypedAtomic);
}

TEST(XQueryParserTest, KeywordsUsableAsElementNames) {
  // 'if', 'for' etc. remain valid name tests when not in keyword position.
  EXPECT_TRUE(Parse("$d/if").ok());
  EXPECT_TRUE(Parse("$d/return/order").ok());
}

TEST(XQueryParserTest, ConstructorNamespaceScoping) {
  auto q = Parse("<p:a xmlns:p=\"urn:p\"><p:b/></p:a>");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->body->kind, ExprKind::kDirectElement);
  // Outside the constructor, the prefix is unknown.
  EXPECT_FALSE(Parse("(<p:a xmlns:p=\"urn:p\"/>, $x/p:b)").ok());
}

TEST(XQueryParserTest, CurlyEscapesInConstructors) {
  auto q = Parse("<a>{{literal}}</a>");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->body->ctor_content.size(), 1u);
  EXPECT_TRUE(q->body->ctor_content[0].is_text);
  EXPECT_EQ(q->body->ctor_content[0].text, "{literal}");
}

TEST(XQueryParserTest, SyntaxErrorsCarryLocation) {
  auto q = Parse("for $x in\n  (1, 2 return $x");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("line"), std::string::npos)
      << q.status().ToString();
}

TEST(XQueryParserTest, RejectsCommonMistakes) {
  EXPECT_FALSE(Parse("for $x return $x").ok());       // missing in
  EXPECT_FALSE(Parse("let $x = 1 return $x").ok());   // = instead of :=
  EXPECT_FALSE(Parse("<a><b></a>").ok());             // mismatched tags
  EXPECT_FALSE(Parse("1 +").ok());
  EXPECT_FALSE(Parse("$x[").ok());
  EXPECT_FALSE(Parse("unknown:fn(1)").ok());
  EXPECT_FALSE(Parse("").ok());
}

TEST(XQueryParserTest, CommentsNestAndTerminate) {
  EXPECT_TRUE(Parse("(: a (: nested :) b :) 1").ok());
  EXPECT_FALSE(Parse("(: unterminated 1").ok());
}

TEST(XQueryParserTest, ValueVsGeneralComparisonKinds) {
  auto gen = Parse("$a = $b");
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->body->kind, ExprKind::kGeneralCompare);
  auto val = Parse("$a eq $b");
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(val->body->kind, ExprKind::kValueCompare);
  auto is = Parse("$a is $b");
  ASSERT_TRUE(is.ok());
  EXPECT_EQ(is->body->kind, ExprKind::kNodeIs);
}

TEST(XQueryParserTest, ExprToStringSmoke) {
  auto q = Parse(
      "for $i in db2-fn:xmlcolumn('T.C')//a[@p > 1] "
      "return <r>{$i}</r>");
  ASSERT_TRUE(q.ok());
  std::string dump = ExprToString(*q->body);
  EXPECT_NE(dump.find("flwor"), std::string::npos);
  EXPECT_NE(dump.find("xmlcolumn"), std::string::npos);
  EXPECT_NE(dump.find("elem"), std::string::npos);
}

TEST(XQueryParserTest, QuantifiedMultipleBindingsDesugar) {
  auto q = Parse("some $a in (1,2), $b in (3,4) satisfies $a < $b");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->body->kind, ExprKind::kQuantified);
  EXPECT_EQ(q->body->var, "a");
  EXPECT_EQ(q->body->children[1]->kind, ExprKind::kQuantified);
  EXPECT_EQ(q->body->children[1]->var, "b");
}

}  // namespace
}  // namespace xqdb
