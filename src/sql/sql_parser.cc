#include "sql/sql_parser.h"

#include <cctype>

#include "common/str_util.h"
#include "xquery/lexer.h"

namespace xqdb {

namespace {

class SqlParser {
 public:
  explicit SqlParser(std::string_view text) : cur_(text) {}

  Result<SqlStatement> Parse() {
    SqlStatement stmt;
    if (PeekKw("CREATE")) {
      ConsumeKw("CREATE");
      if (ConsumeKw("TABLE")) {
        XQDB_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
        stmt.kind = SqlStatement::Kind::kCreateTable;
      } else if (ConsumeKw("UNIQUE") || PeekKw("INDEX")) {
        if (!ConsumeKw("INDEX")) {
          return Status::ParseError("expected INDEX after CREATE UNIQUE");
        }
        XQDB_ASSIGN_OR_RETURN(stmt.create_index, ParseCreateIndex());
        stmt.kind = SqlStatement::Kind::kCreateIndex;
      } else {
        return Status::ParseError("expected TABLE or INDEX after CREATE");
      }
    } else if (ConsumeKw("INSERT")) {
      XQDB_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
      stmt.kind = SqlStatement::Kind::kInsert;
    } else if (ConsumeKw("DELETE")) {
      XQDB_ASSIGN_OR_RETURN(stmt.select, ParseDeleteAsSelect());
      stmt.kind = SqlStatement::Kind::kDelete;
    } else if (PeekKw("SELECT")) {
      XQDB_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      stmt.kind = SqlStatement::Kind::kSelect;
    } else if (ConsumeKw("VALUES")) {
      XQDB_ASSIGN_OR_RETURN(stmt.select, ParseValuesAsSelect());
      stmt.kind = SqlStatement::Kind::kSelect;
    } else {
      return Status::ParseError("unrecognized SQL statement at " +
                                cur_.Location());
    }
    cur_.SkipWs();
    cur_.ConsumeToken(";");
    cur_.SkipWs();
    if (!cur_.AtEnd()) {
      return Status::ParseError("trailing input after statement at " +
                                cur_.Location());
    }
    return stmt;
  }

 private:
  // ----- Span stamping ----------------------------------------------------

  /// Records [start, here-sans-trailing-ws) as `e`'s span unless a narrower
  /// span was already stamped lower in the expression tree.
  void Stamp(SqlExpr* e, size_t start) {
    if (e == nullptr || e->span.IsValid()) return;
    size_t end = cur_.pos();
    std::string_view in = cur_.input();
    while (end > start &&
           std::isspace(static_cast<unsigned char>(in[end - 1]))) {
      --end;
    }
    if (end > start) e->span = SourceSpan{start, end};
  }

  size_t SpanStart() {
    cur_.SkipWs();
    return cur_.pos();
  }

  // ----- Lexical helpers (SQL is case-insensitive) -----------------------

  bool PeekKw(std::string_view kw) {
    size_t mark = cur_.pos();
    bool ok = ConsumeKw(kw);
    cur_.set_pos(mark);
    return ok;
  }

  bool ConsumeKw(std::string_view kw) {
    cur_.SkipWs();
    size_t mark = cur_.pos();
    for (char want : kw) {
      if (cur_.AtEnd() ||
          std::toupper(static_cast<unsigned char>(cur_.Peek())) !=
              std::toupper(static_cast<unsigned char>(want))) {
        cur_.set_pos(mark);
        return false;
      }
      cur_.Bump();
    }
    // Word boundary.
    if (!cur_.AtEnd() && (IsNCNameChar(cur_.Peek()))) {
      cur_.set_pos(mark);
      return false;
    }
    return true;
  }

  Result<std::string> ParseIdentifier() {
    cur_.SkipWs();
    if (cur_.Peek() == '"') {
      cur_.Bump();
      std::string out;
      while (!cur_.AtEnd() && cur_.Peek() != '"') {
        out.push_back(cur_.Peek());
        cur_.Bump();
      }
      if (cur_.AtEnd()) return Status::ParseError("unterminated identifier");
      cur_.Bump();
      return ToUpperAscii(out);
    }
    if (!IsNCNameStart(cur_.Peek())) {
      return Status::ParseError("expected identifier at " + cur_.Location());
    }
    // SQL identifiers: letters, digits, '_' — unlike XML NCNames, '.' is a
    // qualifier separator, not an identifier character.
    std::string name;
    while (!cur_.AtEnd()) {
      char c = cur_.Peek();
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) break;
      name.push_back(c);
      cur_.Bump();
    }
    return ToUpperAscii(name);
  }

  /// SQL string literal: single quotes, doubled-quote escape, no entity
  /// processing (the contents are often XQuery or XML text). When
  /// `content_start` is non-null it receives the offset of the literal's
  /// first content character — exact for the embedded-XQuery case as long
  /// as no doubled-quote escape precedes a span of interest.
  Result<std::string> ParseSqlString(size_t* content_start = nullptr) {
    cur_.SkipWs();
    if (cur_.Peek() != '\'') {
      return Status::ParseError("expected string literal at " +
                                cur_.Location());
    }
    cur_.Bump();
    if (content_start != nullptr) *content_start = cur_.pos();
    std::string out;
    while (!cur_.AtEnd()) {
      char c = cur_.Peek();
      if (c == '\'') {
        if (cur_.PeekAt(1) == '\'') {
          out.push_back('\'');
          cur_.Bump();
          cur_.Bump();
          continue;
        }
        cur_.Bump();
        return out;
      }
      out.push_back(c);
      cur_.Bump();
    }
    return Status::ParseError("unterminated string literal");
  }

  Result<SqlValue> ParseLiteralValue() {
    cur_.SkipWs();
    char c = cur_.Peek();
    if (c == '\'') {
      XQDB_ASSIGN_OR_RETURN(std::string s, ParseSqlString());
      return SqlValue::Varchar(std::move(s));
    }
    if (ConsumeKw("NULL")) return SqlValue::Null();
    bool neg = false;
    if (c == '-') {
      neg = true;
      cur_.Bump();
      cur_.SkipWs();
      c = cur_.Peek();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = cur_.pos();
      bool is_double = false;
      while (!cur_.AtEnd()) {
        char d = cur_.Peek();
        if (std::isdigit(static_cast<unsigned char>(d))) {
          cur_.Bump();
        } else if (d == '.' || d == 'e' || d == 'E' ||
                   ((d == '+' || d == '-') && is_double)) {
          if (d == '.' || d == 'e' || d == 'E') is_double = true;
          cur_.Bump();
        } else {
          break;
        }
      }
      std::string text(cur_.input().substr(start, cur_.pos() - start));
      if (is_double) {
        auto v = ParseXsDouble(text);
        if (!v) return Status::ParseError("bad numeric literal " + text);
        return SqlValue::Double(neg ? -*v : *v);
      }
      auto v = ParseXsInteger(text);
      if (!v) return Status::ParseError("bad integer literal " + text);
      return SqlValue::Integer(neg ? -*v : *v);
    }
    return Status::ParseError("expected literal at " + cur_.Location());
  }

  // ----- Types -----------------------------------------------------------

  Result<ColumnDef> ParseColumnType(std::string name) {
    ColumnDef def;
    def.name = std::move(name);
    if (ConsumeKw("INTEGER") || ConsumeKw("INT")) {
      def.type = SqlType::kInteger;
    } else if (ConsumeKw("DOUBLE")) {
      ConsumeKw("PRECISION");
      def.type = SqlType::kDouble;
    } else if (ConsumeKw("DECIMAL") || ConsumeKw("NUMERIC")) {
      def.type = SqlType::kDecimal;
      if (cur_.ConsumeToken("(")) {
        XQDB_ASSIGN_OR_RETURN(SqlValue p, ParseLiteralValue());
        def.dec_precision = static_cast<int>(p.integer_value());
        if (cur_.ConsumeToken(",")) {
          XQDB_ASSIGN_OR_RETURN(SqlValue s, ParseLiteralValue());
          def.dec_scale = static_cast<int>(s.integer_value());
        }
        if (!cur_.ConsumeToken(")")) {
          return Status::ParseError("expected ')' in DECIMAL type");
        }
      }
    } else if (ConsumeKw("VARCHAR") || ConsumeKw("CHAR")) {
      def.type = SqlType::kVarchar;
      if (cur_.ConsumeToken("(")) {
        XQDB_ASSIGN_OR_RETURN(SqlValue n, ParseLiteralValue());
        def.varchar_len = static_cast<int>(n.integer_value());
        if (!cur_.ConsumeToken(")")) {
          return Status::ParseError("expected ')' in VARCHAR type");
        }
      }
    } else if (ConsumeKw("XML")) {
      def.type = SqlType::kXml;
    } else {
      return Status::ParseError("unknown column type at " + cur_.Location());
    }
    return def;
  }

  // ----- Statements ------------------------------------------------------

  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable() {
    auto stmt = std::make_unique<CreateTableStmt>();
    XQDB_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    if (!cur_.ConsumeToken("(")) {
      return Status::ParseError("expected '(' in CREATE TABLE");
    }
    do {
      XQDB_ASSIGN_OR_RETURN(std::string col, ParseIdentifier());
      XQDB_ASSIGN_OR_RETURN(ColumnDef def, ParseColumnType(std::move(col)));
      stmt->columns.push_back(std::move(def));
    } while (cur_.ConsumeToken(","));
    if (!cur_.ConsumeToken(")")) {
      return Status::ParseError("expected ')' in CREATE TABLE");
    }
    return stmt;
  }

  Result<std::unique_ptr<CreateIndexStmt>> ParseCreateIndex() {
    auto stmt = std::make_unique<CreateIndexStmt>();
    XQDB_ASSIGN_OR_RETURN(stmt->index_name, ParseIdentifier());
    if (!ConsumeKw("ON")) {
      return Status::ParseError("expected ON in CREATE INDEX");
    }
    XQDB_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    // Accept both table(col) and the paper's table.col shorthand.
    if (cur_.ConsumeToken("(")) {
      XQDB_ASSIGN_OR_RETURN(stmt->column_name, ParseIdentifier());
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')' in CREATE INDEX");
      }
    } else if (cur_.ConsumeToken(".")) {
      XQDB_ASSIGN_OR_RETURN(stmt->column_name, ParseIdentifier());
    } else {
      return Status::ParseError("expected (column) in CREATE INDEX");
    }
    if (ConsumeKw("USING")) {
      if (!ConsumeKw("XMLPATTERN")) {
        return Status::ParseError("expected XMLPATTERN after USING");
      }
      stmt->is_xml_pattern = true;
      XQDB_ASSIGN_OR_RETURN(stmt->pattern, ParseSqlString());
      if (!ConsumeKw("AS")) {
        return Status::ParseError("expected AS <type> after XMLPATTERN");
      }
      ConsumeKw("SQL");  // optional per DB2 syntax
      if (ConsumeKw("VARCHAR")) {
        stmt->xml_type = IndexValueType::kVarchar;
        if (cur_.ConsumeToken("(")) {
          XQDB_ASSIGN_OR_RETURN(SqlValue n, ParseLiteralValue());
          (void)n;
          if (!cur_.ConsumeToken(")")) {
            return Status::ParseError("expected ')' after VARCHAR length");
          }
        }
      } else if (ConsumeKw("DOUBLE")) {
        stmt->xml_type = IndexValueType::kDouble;
      } else if (ConsumeKw("DATE")) {
        stmt->xml_type = IndexValueType::kDate;
      } else if (ConsumeKw("TIMESTAMP")) {
        stmt->xml_type = IndexValueType::kTimestamp;
      } else {
        return Status::ParseError(
            "XML index type must be VARCHAR, DOUBLE, DATE or TIMESTAMP");
      }
    }
    return stmt;
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    if (!ConsumeKw("INTO")) {
      return Status::ParseError("expected INTO after INSERT");
    }
    auto stmt = std::make_unique<InsertStmt>();
    XQDB_ASSIGN_OR_RETURN(stmt->table_name, ParseIdentifier());
    if (!ConsumeKw("VALUES")) {
      return Status::ParseError("expected VALUES in INSERT");
    }
    do {
      if (!cur_.ConsumeToken("(")) {
        return Status::ParseError("expected '(' in VALUES");
      }
      std::vector<SqlValue> row;
      do {
        XQDB_ASSIGN_OR_RETURN(SqlValue v, ParseLiteralValue());
        row.push_back(std::move(v));
      } while (cur_.ConsumeToken(","));
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')' in VALUES row");
      }
      stmt->rows.push_back(std::move(row));
    } while (cur_.ConsumeToken(","));
    return stmt;
  }

  Result<std::unique_ptr<SelectStmt>> ParseValuesAsSelect() {
    auto stmt = std::make_unique<SelectStmt>();
    if (!cur_.ConsumeToken("(")) {
      return Status::ParseError("expected '(' after VALUES");
    }
    do {
      SelectItem item;
      XQDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      stmt->items.push_back(std::move(item));
    } while (cur_.ConsumeToken(","));
    if (!cur_.ConsumeToken(")")) {
      return Status::ParseError("expected ')' in VALUES");
    }
    return stmt;
  }

  /// DELETE FROM t [WHERE c] parses as SELECT * FROM t [WHERE c]: the
  /// DELETE tombstones exactly the rows that query returns.
  Result<std::unique_ptr<SelectStmt>> ParseDeleteAsSelect() {
    if (!ConsumeKw("FROM")) {
      return Status::ParseError("expected FROM after DELETE");
    }
    auto stmt = std::make_unique<SelectStmt>();
    SelectItem star;
    star.star = true;
    stmt->items.push_back(std::move(star));
    TableRef ref;
    XQDB_ASSIGN_OR_RETURN(ref.table_name, ParseIdentifier());
    ref.alias = ref.table_name;
    stmt->from.push_back(std::move(ref));
    if (ConsumeKw("WHERE")) {
      XQDB_ASSIGN_OR_RETURN(stmt->where, ParseOr());
    }
    return stmt;
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    ConsumeKw("SELECT");
    auto stmt = std::make_unique<SelectStmt>();
    do {
      SelectItem item;
      cur_.SkipWs();
      if (cur_.Peek() == '*') {
        cur_.Bump();
        item.star = true;
      } else {
        XQDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKw("AS")) {
          XQDB_ASSIGN_OR_RETURN(item.alias, ParseIdentifier());
        }
      }
      stmt->items.push_back(std::move(item));
    } while (cur_.ConsumeToken(","));

    if (ConsumeKw("FROM")) {
      do {
        XQDB_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
      } while (cur_.ConsumeToken(","));
    }
    if (ConsumeKw("WHERE")) {
      XQDB_ASSIGN_OR_RETURN(stmt->where, ParseOr());
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    cur_.SkipWs();
    TableRef ref;
    if (PeekKw("XMLTABLE")) {
      ConsumeKw("XMLTABLE");
      ref.kind = TableRef::Kind::kXmlTable;
      if (!cur_.ConsumeToken("(")) {
        return Status::ParseError("expected '(' after XMLTABLE");
      }
      XQDB_ASSIGN_OR_RETURN(ref.row_query, ParseEmbeddedXQuery());
      if (ConsumeKw("COLUMNS")) {
        do {
          XQDB_ASSIGN_OR_RETURN(XmlTableColumn col,
                                ParseXmlTableColumn(*ref.row_query));
          ref.columns.push_back(std::move(col));
        } while (cur_.ConsumeToken(","));
      }
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')' closing XMLTABLE");
      }
    } else {
      XQDB_ASSIGN_OR_RETURN(ref.table_name, ParseIdentifier());
      ref.alias = ref.table_name;
    }
    ConsumeKw("AS");
    cur_.SkipWs();
    if (cur_.Peek() == '"' ||
        (IsNCNameStart(cur_.Peek()) && !AtClauseKw())) {
      XQDB_ASSIGN_OR_RETURN(ref.alias, ParseIdentifier());
      // Optional column-alias list: t(c1, c2).
      if (cur_.ConsumeToken("(")) {
        std::vector<std::string> names;
        do {
          XQDB_ASSIGN_OR_RETURN(std::string n, ParseIdentifier());
          names.push_back(std::move(n));
        } while (cur_.ConsumeToken(","));
        if (!cur_.ConsumeToken(")")) {
          return Status::ParseError("expected ')' in column alias list");
        }
        if (ref.kind == TableRef::Kind::kXmlTable) {
          if (names.size() != ref.columns.size()) {
            return Status::ParseError(
                "column alias list arity does not match XMLTABLE COLUMNS");
          }
          for (size_t i = 0; i < names.size(); ++i) {
            ref.columns[i].name = names[i];
          }
        }
      }
    }
    return ref;
  }

  bool AtClauseKw() {
    return PeekKw("WHERE") || PeekKw("XMLTABLE") || PeekKw("ON") ||
           PeekKw("ORDER") || PeekKw("GROUP");
  }

  Result<XmlTableColumn> ParseXmlTableColumn(const EmbeddedXQuery& row_query) {
    XmlTableColumn col;
    XQDB_ASSIGN_OR_RETURN(col.name, ParseIdentifier());
    if (ConsumeKw("FOR")) {
      if (!ConsumeKw("ORDINALITY")) {
        return Status::ParseError("expected ORDINALITY");
      }
      col.for_ordinality = true;
      return col;
    }
    if (ConsumeKw("XML")) {
      col.is_xml = true;
      if (ConsumeKw("BY")) {
        if (ConsumeKw("REF")) {
          col.by_ref = true;
        } else if (ConsumeKw("VALUE")) {
          col.by_ref = false;
        } else {
          return Status::ParseError("expected REF or VALUE after BY");
        }
      }
    } else {
      XQDB_ASSIGN_OR_RETURN(ColumnDef def, ParseColumnType(col.name));
      col.type = def.type;
      col.varchar_len = def.varchar_len;
      col.dec_precision = def.dec_precision;
      col.dec_scale = def.dec_scale;
    }
    if (!ConsumeKw("PATH")) {
      return Status::ParseError("expected PATH in XMLTABLE column");
    }
    XQDB_ASSIGN_OR_RETURN(col.path_text, ParseSqlString(&col.path_offset));
    // Column paths share the row query's static context (namespaces).
    StaticContext sctx = row_query.parsed.static_context;
    XQDB_ASSIGN_OR_RETURN(col.path_expr,
                          ParseXQueryExpr(col.path_text, &sctx));
    return col;
  }

  Result<std::unique_ptr<EmbeddedXQuery>> ParseEmbeddedXQuery() {
    auto q = std::make_unique<EmbeddedXQuery>();
    XQDB_ASSIGN_OR_RETURN(q->text, ParseSqlString(&q->text_offset));
    XQDB_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseXQuery(q->text));
    q->parsed = std::move(parsed);
    if (ConsumeKw("PASSING")) {
      do {
        PassingArg arg;
        XQDB_ASSIGN_OR_RETURN(arg.value, ParseExpr());
        if (!ConsumeKw("AS")) {
          return Status::ParseError("expected AS in PASSING clause");
        }
        XQDB_ASSIGN_OR_RETURN(std::string name, ParsePassingName());
        arg.var_name = std::move(name);
        q->passing.push_back(std::move(arg));
      } while (cur_.ConsumeToken(","));
    }
    return q;
  }

  /// Passing names are XQuery variable names: quoted identifiers keep their
  /// case ('passing orddoc as "order"' binds $order, lowercase).
  Result<std::string> ParsePassingName() {
    cur_.SkipWs();
    if (cur_.Peek() == '"') {
      cur_.Bump();
      std::string out;
      while (!cur_.AtEnd() && cur_.Peek() != '"') {
        out.push_back(cur_.Peek());
        cur_.Bump();
      }
      if (cur_.AtEnd()) return Status::ParseError("unterminated identifier");
      cur_.Bump();
      return out;
    }
    XQDB_ASSIGN_OR_RETURN(std::string name, cur_.ParseNCName());
    return name;
  }

  // ----- Expressions (conditions and scalars) ----------------------------

  Result<std::unique_ptr<SqlExpr>> ParseOr() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseAnd());
    while (ConsumeKw("OR")) {
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kOr);
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseAnd());
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<std::unique_ptr<SqlExpr>> ParseAnd() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseNot());
    while (ConsumeKw("AND")) {
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kAnd);
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseNot());
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<std::unique_ptr<SqlExpr>> ParseNot() {
    if (ConsumeKw("NOT")) {
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kNot);
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> inner, ParseNot());
      e->children.push_back(std::move(inner));
      return e;
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<SqlExpr>> ParseComparison() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> e, ParseComparisonInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<SqlExpr>> ParseComparisonInner() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> lhs, ParseExpr());
    cur_.SkipWs();
    if (ConsumeKw("IS")) {
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kIsNull);
      e->is_null_negated = ConsumeKw("NOT");
      if (!ConsumeKw("NULL")) {
        return Status::ParseError("expected NULL after IS");
      }
      e->children.push_back(std::move(lhs));
      return e;
    }
    CompareOp op;
    if (cur_.ConsumeToken("<>")) {
      op = CompareOp::kNe;
    } else if (cur_.ConsumeToken("!=")) {
      op = CompareOp::kNe;
    } else if (cur_.ConsumeToken("<=")) {
      op = CompareOp::kLe;
    } else if (cur_.ConsumeToken(">=")) {
      op = CompareOp::kGe;
    } else if (cur_.ConsumeToken("=")) {
      op = CompareOp::kEq;
    } else if (cur_.ConsumeToken("<")) {
      op = CompareOp::kLt;
    } else if (cur_.ConsumeToken(">")) {
      op = CompareOp::kGt;
    } else {
      return lhs;  // Bare expression used as a condition (e.g. XMLEXISTS).
    }
    auto e = std::make_unique<SqlExpr>(SqlExprKind::kCompare);
    e->cmp_op = op;
    e->children.push_back(std::move(lhs));
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> rhs, ParseExpr());
    e->children.push_back(std::move(rhs));
    return e;
  }

  Result<std::unique_ptr<SqlExpr>> ParseExpr() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> e, ParseExprInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<SqlExpr>> ParseExprInner() {
    cur_.SkipWs();
    char c = cur_.Peek();
    if (c == '(') {
      cur_.Bump();
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> inner, ParseOr());
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')'");
      }
      return inner;
    }
    if (c == '\'' || std::isdigit(static_cast<unsigned char>(c)) ||
        c == '-') {
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kLiteral);
      XQDB_ASSIGN_OR_RETURN(e->literal, ParseLiteralValue());
      return e;
    }
    if (PeekKw("XMLQUERY")) {
      ConsumeKw("XMLQUERY");
      if (!cur_.ConsumeToken("(")) {
        return Status::ParseError("expected '(' after XMLQUERY");
      }
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kXmlQuery);
      XQDB_ASSIGN_OR_RETURN(e->xquery, ParseEmbeddedXQuery());
      // Tolerate RETURNING SEQUENCE / BY REF noise words.
      ConsumeKw("RETURNING");
      ConsumeKw("SEQUENCE");
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')' closing XMLQUERY");
      }
      return e;
    }
    if (PeekKw("XMLEXISTS")) {
      ConsumeKw("XMLEXISTS");
      if (!cur_.ConsumeToken("(")) {
        return Status::ParseError("expected '(' after XMLEXISTS");
      }
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kXmlExists);
      XQDB_ASSIGN_OR_RETURN(e->xquery, ParseEmbeddedXQuery());
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')' closing XMLEXISTS");
      }
      return e;
    }
    if (PeekKw("XMLCAST")) {
      ConsumeKw("XMLCAST");
      if (!cur_.ConsumeToken("(")) {
        return Status::ParseError("expected '(' after XMLCAST");
      }
      auto e = std::make_unique<SqlExpr>(SqlExprKind::kXmlCast);
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<SqlExpr> inner, ParseExpr());
      e->children.push_back(std::move(inner));
      if (!ConsumeKw("AS")) {
        return Status::ParseError("expected AS in XMLCAST");
      }
      XQDB_ASSIGN_OR_RETURN(ColumnDef def, ParseColumnType(""));
      e->cast_type = def.type;
      e->cast_len = def.varchar_len;
      e->cast_precision = def.dec_precision;
      e->cast_scale = def.dec_scale;
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')' closing XMLCAST");
      }
      return e;
    }
    // Column reference: ident or ident.ident.
    XQDB_ASSIGN_OR_RETURN(std::string first, ParseIdentifier());
    auto e = std::make_unique<SqlExpr>(SqlExprKind::kColumnRef);
    if (cur_.Peek() == '.') {
      cur_.Bump();
      XQDB_ASSIGN_OR_RETURN(std::string second, ParseIdentifier());
      e->qualifier = std::move(first);
      e->column = std::move(second);
    } else {
      e->column = std::move(first);
    }
    return e;
  }

  CharCursor cur_;
};

}  // namespace

Result<SqlStatement> ParseSql(std::string_view text) {
  SqlParser parser(text);
  return parser.Parse();
}

}  // namespace xqdb
