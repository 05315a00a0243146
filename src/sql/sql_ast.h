#ifndef XQDB_SQL_SQL_AST_H_
#define XQDB_SQL_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "index/xml_index.h"
#include "storage/value.h"
#include "xdm/compare.h"
#include "xquery/ast.h"
#include "xquery/parser.h"

namespace xqdb {

struct SqlExpr;

/// One `passing <expr> as "name"` argument of an SQL/XML query function.
struct PassingArg {
  std::unique_ptr<SqlExpr> value;
  std::string var_name;  // XQuery variable (without '$')
};

/// An embedded XQuery: its source text (for EXPLAIN / eligibility
/// diagnostics), the parsed body, the prolog's static context, and the
/// passing list.
struct EmbeddedXQuery {
  std::string text;
  ParsedQuery parsed;
  std::vector<PassingArg> passing;
  /// Byte offset of the string literal's *contents* in the enclosing SQL
  /// statement: spans inside `parsed` (relative to `text`) shift by this to
  /// point into the SQL source. Exact as long as the literal contains no
  /// doubled-quote escapes before the span (rare in embedded XQuery).
  size_t text_offset = 0;
};

enum class SqlExprKind {
  kLiteral,
  kColumnRef,
  kCompare,   // SQL comparison (=, <>, <, <=, >, >=)
  kAnd,
  kOr,
  kNot,
  kIsNull,    // expr IS [NOT] NULL
  kXmlQuery,  // XMLQUERY('xq' PASSING ...)
  kXmlExists, // XMLEXISTS('xq' PASSING ...)
  kXmlCast,   // XMLCAST(expr AS sqltype)
};

struct SqlExpr {
  explicit SqlExpr(SqlExprKind k) : kind(k) {}
  SqlExpr(const SqlExpr&) = delete;
  SqlExpr& operator=(const SqlExpr&) = delete;

  SqlExprKind kind;

  /// Byte range of this expression in the SQL statement text.
  SourceSpan span;

  // kLiteral
  SqlValue literal;

  // kColumnRef: "alias.column" or "column", resolved by FindColumnSlot
  // (sql/schema.h).
  std::string qualifier;  // table alias, may be empty
  std::string column;

  // kCompare
  CompareOp cmp_op = CompareOp::kEq;

  // kIsNull
  bool is_null_negated = false;

  // kXmlQuery / kXmlExists
  std::unique_ptr<EmbeddedXQuery> xquery;

  // kXmlCast
  SqlType cast_type = SqlType::kVarchar;
  int cast_len = 0;
  int cast_precision = 0;
  int cast_scale = 0;

  std::vector<std::unique_ptr<SqlExpr>> children;
};

/// One COLUMNS entry of an XMLTABLE.
struct XmlTableColumn {
  std::string name;  // uppercase
  bool for_ordinality = false;
  bool is_xml = false;
  bool by_ref = true;  // XML columns: BY REF keeps node identity (paper fn.3)
  SqlType type = SqlType::kVarchar;
  int varchar_len = 0;
  int dec_precision = 0;
  int dec_scale = 0;
  std::string path_text;
  std::unique_ptr<Expr> path_expr;  // parsed with the row expr's context
  size_t path_offset = 0;  // offset of path_text in the SQL statement
};

/// A FROM item: a base table or an XMLTABLE call (implicitly lateral —
/// its PASSING clause may reference columns of earlier FROM items).
struct TableRef {
  enum class Kind { kBaseTable, kXmlTable } kind = Kind::kBaseTable;
  std::string table_name;  // kBaseTable, uppercase
  std::string alias;       // uppercase; defaults to table name

  // kXmlTable: the row-producing XQuery (paper §3.2: the only part of an
  // XMLTABLE that can use an XML index) plus column definitions.
  std::unique_ptr<EmbeddedXQuery> row_query;
  std::vector<XmlTableColumn> columns;
};

struct SelectItem {
  bool star = false;
  std::unique_ptr<SqlExpr> expr;
  std::string alias;  // uppercase, optional
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;  // empty for VALUES(...) statements
  std::unique_ptr<SqlExpr> where;
};

struct CreateTableStmt {
  std::string table_name;  // uppercase
  std::vector<ColumnDef> columns;
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table_name;
  std::string column_name;
  bool is_xml_pattern = false;
  std::string pattern;  // raw XMLPATTERN text
  IndexValueType xml_type = IndexValueType::kVarchar;
};

struct InsertStmt {
  std::string table_name;
  // Each row: one literal per column (strings for XML columns hold
  // document text).
  std::vector<std::vector<SqlValue>> rows;
};

struct SqlStatement {
  enum class Kind {
    kSelect,
    kCreateTable,
    kCreateIndex,
    kInsert,
    kDelete,
  } kind = Kind::kSelect;
  /// kSelect: the query. kDelete: `SELECT * FROM t [WHERE c]`, the query
  /// whose rows the DELETE tombstones (nullptr for DDL and INSERT).
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<InsertStmt> insert;
};

/// Short description of an SQL scalar expression for EXPLAIN output.
std::string SqlExprToString(const SqlExpr& e);

/// Appends the top-level AND conjuncts of `e` to `out`, left to right (the
/// order SQL AND short-circuits in).
void SplitConjuncts(const SqlExpr& e, std::vector<const SqlExpr*>* out);

}  // namespace xqdb

#endif  // XQDB_SQL_SQL_AST_H_
