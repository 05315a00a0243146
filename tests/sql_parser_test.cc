// SQL/XML parser unit tests: statement shapes, error reporting, and the
// corners that bit early adopters (quoted identifiers, PASSING name case,
// embedded XQuery quoting).

#include <gtest/gtest.h>

#include <string>

#include "sql/sql_parser.h"

namespace xqdb {
namespace {

Result<SqlStatement> Parse(const std::string& sql) { return ParseSql(sql); }

TEST(SqlParserTest, CreateTableShapes) {
  auto s = Parse("CREATE TABLE t (a INTEGER, b DOUBLE, c DECIMAL(6,3), "
                 "d VARCHAR(13), e XML)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->kind, SqlStatement::Kind::kCreateTable);
  const auto& cols = s->create_table->columns;
  ASSERT_EQ(cols.size(), 5u);
  EXPECT_EQ(cols[0].type, SqlType::kInteger);
  EXPECT_EQ(cols[1].type, SqlType::kDouble);
  EXPECT_EQ(cols[2].type, SqlType::kDecimal);
  EXPECT_EQ(cols[2].dec_precision, 6);
  EXPECT_EQ(cols[2].dec_scale, 3);
  EXPECT_EQ(cols[3].type, SqlType::kVarchar);
  EXPECT_EQ(cols[3].varchar_len, 13);
  EXPECT_EQ(cols[4].type, SqlType::kXml);
  EXPECT_EQ(s->create_table->table_name, "T");
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(Parse("select ordid from orders").ok());
  EXPECT_TRUE(Parse("SeLeCt * FrOm orders WhErE a = 1").ok());
}

TEST(SqlParserTest, CreateIndexVariants) {
  auto xmlidx = Parse(
      "CREATE INDEX li ON orders(orddoc) USING XMLPATTERN "
      "'//lineitem/@price' AS SQL DOUBLE");
  ASSERT_TRUE(xmlidx.ok());
  EXPECT_TRUE(xmlidx->create_index->is_xml_pattern);
  EXPECT_EQ(xmlidx->create_index->xml_type, IndexValueType::kDouble);
  EXPECT_EQ(xmlidx->create_index->pattern, "//lineitem/@price");

  // Optional SQL keyword, VARCHAR length, paper's dotted notation.
  EXPECT_TRUE(Parse("CREATE INDEX p ON orders.orddoc USING XMLPATTERN "
                    "'//price' AS VARCHAR(20)")
                  .ok());
  EXPECT_TRUE(Parse("CREATE UNIQUE INDEX r ON products(id)").ok());
  auto rel = Parse("CREATE INDEX r2 ON products(id)");
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(rel->create_index->is_xml_pattern);

  EXPECT_FALSE(Parse("CREATE INDEX b ON t(c) USING XMLPATTERN '//x' "
                     "AS BLOB")
                   .ok());
}

TEST(SqlParserTest, InsertRows) {
  auto s = Parse("INSERT INTO t VALUES (1, 'x'), (2, NULL), (-3, '<a/>')");
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->insert->rows.size(), 3u);
  EXPECT_EQ(s->insert->rows[0][0].integer_value(), 1);
  EXPECT_TRUE(s->insert->rows[1][1].is_null());
  EXPECT_EQ(s->insert->rows[2][0].integer_value(), -3);
  EXPECT_EQ(s->insert->rows[2][1].varchar_value(), "<a/>");
}

TEST(SqlParserTest, QuotedStringEscapes) {
  auto s = Parse("INSERT INTO t VALUES ('it''s')");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->insert->rows[0][0].varchar_value(), "it's");
}

TEST(SqlParserTest, PassingNamesKeepCase) {
  // 'passing orddoc as "order"' binds the XQuery variable $order —
  // lowercase, unlike SQL identifiers.
  auto s = Parse(
      "SELECT ordid FROM orders WHERE XMLEXISTS('$order/order' "
      "passing orddoc as \"order\")");
  ASSERT_TRUE(s.ok());
  const SqlExpr& where = *s->select->where;
  ASSERT_EQ(where.kind, SqlExprKind::kXmlExists);
  ASSERT_EQ(where.xquery->passing.size(), 1u);
  EXPECT_EQ(where.xquery->passing[0].var_name, "order");
  EXPECT_EQ(where.xquery->passing[0].value->column, "ORDDOC");
}

TEST(SqlParserTest, QualifiedColumnRefs) {
  auto s = Parse("SELECT o.ordid FROM orders o WHERE o.ordid = 1");
  ASSERT_TRUE(s.ok());
  const auto& item = s->select->items[0];
  EXPECT_EQ(item.expr->qualifier, "O");
  EXPECT_EQ(item.expr->column, "ORDID");
  EXPECT_EQ(s->select->from[0].alias, "O");
}

TEST(SqlParserTest, EmbeddedXQuerySyntaxErrorSurfaces) {
  auto s = Parse(
      "SELECT ordid FROM orders WHERE XMLEXISTS('$o/[[[' "
      "passing orddoc as \"o\")");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kParseError);
}

TEST(SqlParserTest, XmlTableColumnsParse) {
  auto s = Parse(
      "SELECT t.a FROM orders o, XMLTABLE('$o//lineitem' passing o.orddoc "
      "as \"o\" COLUMNS \"n\" FOR ORDINALITY, \"li\" XML BY REF PATH '.', "
      "\"liv\" XML BY VALUE PATH '.', "
      "\"price\" DECIMAL(6,3) PATH '@price') as t(n, li, liv, price)");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  const TableRef& ref = s->select->from[1];
  ASSERT_EQ(ref.columns.size(), 4u);
  EXPECT_TRUE(ref.columns[0].for_ordinality);
  EXPECT_TRUE(ref.columns[1].is_xml);
  EXPECT_TRUE(ref.columns[1].by_ref);
  EXPECT_FALSE(ref.columns[2].by_ref);
  EXPECT_EQ(ref.columns[3].type, SqlType::kDecimal);
  // Alias list renamed the columns.
  EXPECT_EQ(ref.columns[0].name, "N");
  EXPECT_EQ(ref.columns[3].name, "PRICE");
}

TEST(SqlParserTest, XmlTableAliasArityMismatch) {
  auto s = Parse(
      "SELECT 1 FROM XMLTABLE('$o' passing x as \"o\" "
      "COLUMNS \"a\" XML PATH '.') as t(a, b)");
  EXPECT_FALSE(s.ok());
}

TEST(SqlParserTest, DeleteShapes) {
  auto all = Parse("DELETE FROM orders");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->kind, SqlStatement::Kind::kDelete);
  // A DELETE is the SELECT of its victims: SELECT * FROM t [WHERE c].
  ASSERT_NE(all->select, nullptr);
  ASSERT_EQ(all->select->items.size(), 1u);
  EXPECT_TRUE(all->select->items[0].star);
  ASSERT_EQ(all->select->from.size(), 1u);
  EXPECT_EQ(all->select->from[0].table_name, "ORDERS");
  EXPECT_EQ(all->select->where, nullptr);
  auto cond = Parse("DELETE FROM orders WHERE ordid = 1");
  ASSERT_TRUE(cond.ok());
  EXPECT_NE(cond->select->where, nullptr);
  EXPECT_FALSE(Parse("DELETE orders").ok());
}

TEST(SqlParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(Parse("SELECT a FROM t garbage here").ok());
  EXPECT_TRUE(Parse("SELECT a FROM t;").ok());  // trailing ';' fine
}

TEST(SqlParserTest, NotAndPrecedence) {
  auto s = Parse("SELECT a FROM t WHERE NOT a = 1 AND b = 2 OR c = 3");
  ASSERT_TRUE(s.ok());
  // OR at top: (NOT(a=1) AND b=2) OR c=3.
  EXPECT_EQ(s->select->where->kind, SqlExprKind::kOr);
  EXPECT_EQ(s->select->where->children[0]->kind, SqlExprKind::kAnd);
}

TEST(SqlParserTest, ComparisonOperators) {
  for (const char* op : {"=", "<>", "!=", "<", "<=", ">", ">="}) {
    auto s = Parse(std::string("SELECT a FROM t WHERE a ") + op + " 1");
    EXPECT_TRUE(s.ok()) << op;
  }
}

}  // namespace
}  // namespace xqdb
