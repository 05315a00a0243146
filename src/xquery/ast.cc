#include "xquery/ast.h"

#include "xml/qname.h"

namespace xqdb {

namespace {

std::string TestToString(const NodeTestSpec& t) {
  NamePool* pool = NamePool::Global();
  const NameTest& name = t.name;
  std::string local =
      name.local_any() ? "*" : std::string(pool->LocalText(name.local));
  switch (t.kind) {
    case NodeTestSpec::Kind::kAnyNode:
      return "node()";
    case NodeTestSpec::Kind::kText:
      return "text()";
    case NodeTestSpec::Kind::kComment:
      return "comment()";
    case NodeTestSpec::Kind::kDocument:
      return "document-node()";
    case NodeTestSpec::Kind::kPi:
      return "processing-instruction(" + (name.local_any() ? "" : local) +
             ")";
    case NodeTestSpec::Kind::kName:
      break;
  }
  std::string s;
  if (name.ns_any()) {
    s += "*:";
  } else if (!pool->NamespaceText(name.ns).empty()) {
    s += "{" + std::string(pool->NamespaceText(name.ns)) + "}";
  }
  return s + local;
}

const char* AxisName(PathAxis axis) {
  switch (axis) {
    case PathAxis::kChild:
      return "child";
    case PathAxis::kDescendant:
      return "descendant";
    case PathAxis::kDescendantOrSelf:
      return "descendant-or-self";
    case PathAxis::kSelf:
      return "self";
    case PathAxis::kAttribute:
      return "attribute";
    case PathAxis::kParent:
      return "parent";
    case PathAxis::kAncestor:
      return "ancestor";
    case PathAxis::kAncestorOrSelf:
      return "ancestor-or-self";
  }
  return "?";
}

}  // namespace

std::string ExprToString(const Expr& e) {
  auto kids = [&](const char* name) {
    std::string s = std::string("(") + name;
    for (const auto& c : e.children) {
      s += " " + ExprToString(*c);
    }
    s += ")";
    return s;
  };
  switch (e.kind) {
    case ExprKind::kLiteral:
      return "'" + e.literal.Lexical() + "'";
    case ExprKind::kEmptySequence:
      return "()";
    case ExprKind::kSequence:
      return kids("seq");
    case ExprKind::kVarRef:
      return "$" + e.var;
    case ExprKind::kContextItem:
      return ".";
    case ExprKind::kPath: {
      std::string s = "(path";
      if (e.absolute) s += e.absolute_slashslash ? " '//'" : " '/'";
      for (const PathStep& step : e.steps) {
        s += " ";
        if (step.is_axis_step) {
          s += std::string(AxisName(step.axis)) + "::" +
               TestToString(step.test);
        } else {
          s += ExprToString(*step.expr);
        }
        for (const auto& p : step.predicates) {
          s += "[" + ExprToString(*p) + "]";
        }
      }
      return s + ")";
    }
    case ExprKind::kFlwor: {
      std::string s = "(flwor";
      for (const FlworClause& c : e.clauses) {
        s += (c.kind == FlworClause::Kind::kFor) ? " for $" : " let $";
        s += c.var + " := " + ExprToString(*c.expr);
      }
      if (e.where) s += " where " + ExprToString(*e.where);
      s += " return " + ExprToString(*e.children[0]);
      return s + ")";
    }
    case ExprKind::kQuantified:
      return std::string("(") + (e.quantifier_every ? "every" : "some") +
             " $" + e.var + " in " + ExprToString(*e.children[0]) +
             " satisfies " + ExprToString(*e.children[1]) + ")";
    case ExprKind::kIf:
      return kids("if");
    case ExprKind::kOr:
      return kids("or");
    case ExprKind::kAnd:
      return kids("and");
    case ExprKind::kGeneralCompare:
      return kids(("gcmp" + std::string(CompareOpName(e.cmp_op))).c_str());
    case ExprKind::kValueCompare:
      return kids(("vcmp" + std::string(CompareOpName(e.cmp_op))).c_str());
    case ExprKind::kNodeIs:
      return kids("is");
    case ExprKind::kUnion:
      return kids("union");
    case ExprKind::kIntersect:
      return kids("intersect");
    case ExprKind::kExcept:
      return kids("except");
    case ExprKind::kRange:
      return kids("to");
    case ExprKind::kArith:
      return kids("arith");
    case ExprKind::kUnaryMinus:
      return kids("neg");
    case ExprKind::kFunctionCall:
      return kids(e.fn_name.c_str());
    case ExprKind::kCastAs:
      return kids(("cast-as " + std::string(AtomicTypeName(e.cast_target)))
                      .c_str());
    case ExprKind::kDirectElement: {
      std::string s = "(elem " + NamePool::Global()->ToString(e.elem_name);
      for (const ConstructorAttr& a : e.ctor_attrs) {
        s += " @" + NamePool::Global()->ToString(a.name);
      }
      for (const ConstructorContent& c : e.ctor_content) {
        s += c.is_text ? (" text'" + c.text + "'")
                       : (" " + ExprToString(*c.expr));
      }
      return s + ")";
    }
    case ExprKind::kXmlColumn:
      return "(xmlcolumn " + e.table_name + "." + e.column_name + ")";
  }
  return "(?)";
}

}  // namespace xqdb
