#include "sql/sql_ast.h"

namespace xqdb {

std::string SqlExprToString(const SqlExpr& e) {
  switch (e.kind) {
    case SqlExprKind::kLiteral:
      return e.literal.ToDisplayString();
    case SqlExprKind::kColumnRef:
      return e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
    case SqlExprKind::kCompare:
      return SqlExprToString(*e.children[0]) + " " +
             std::string(CompareOpName(e.cmp_op)) + " " +
             SqlExprToString(*e.children[1]);
    case SqlExprKind::kAnd:
      return "(" + SqlExprToString(*e.children[0]) + " AND " +
             SqlExprToString(*e.children[1]) + ")";
    case SqlExprKind::kOr:
      return "(" + SqlExprToString(*e.children[0]) + " OR " +
             SqlExprToString(*e.children[1]) + ")";
    case SqlExprKind::kNot:
      return "NOT " + SqlExprToString(*e.children[0]);
    case SqlExprKind::kIsNull:
      return SqlExprToString(*e.children[0]) +
             (e.is_null_negated ? " IS NOT NULL" : " IS NULL");
    case SqlExprKind::kXmlQuery:
      return "XMLQUERY('" + e.xquery->text + "')";
    case SqlExprKind::kXmlExists:
      return "XMLEXISTS('" + e.xquery->text + "')";
    case SqlExprKind::kXmlCast:
      return "XMLCAST(" + SqlExprToString(*e.children[0]) + " AS " +
             std::string(SqlTypeName(e.cast_type)) + ")";
  }
  return "?";
}

void SplitConjuncts(const SqlExpr& e, std::vector<const SqlExpr*>* out) {
  if (e.kind == SqlExprKind::kAnd) {
    SplitConjuncts(*e.children[0], out);
    SplitConjuncts(*e.children[1], out);
    return;
  }
  out->push_back(&e);
}

}  // namespace xqdb
