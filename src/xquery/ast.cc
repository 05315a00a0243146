#include "xquery/ast.h"

#include "xml/qname.h"
#include "xpath/pattern.h"

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

/// Calls `fn` on each expression directly below `e` until it returns
/// false; returns false iff `fn` stopped it.
bool ForEachChild(const Expr& e,
                  const std::function<bool(const Expr&)>& fn) {
  auto visit = [&](const std::unique_ptr<Expr>& c) {
    return c == nullptr || fn(*c);
  };
  for (const auto& c : e.children) {
    if (!visit(c)) return false;
  }
  for (const PathStep& step : e.steps) {
    if (!visit(step.expr)) return false;
    for (const auto& p : step.predicates) {
      if (!visit(p)) return false;
    }
  }
  for (const FlworClause& clause : e.clauses) {
    if (!visit(clause.expr)) return false;
  }
  if (!visit(e.where)) return false;
  for (const OrderSpec& spec : e.order_by) {
    if (!visit(spec.key)) return false;
  }
  for (const ConstructorContent& part : e.ctor_content) {
    if (!visit(part.expr)) return false;
  }
  for (const ConstructorAttr& attr : e.ctor_attrs) {
    for (const ConstructorContent& part : attr.value_parts) {
      if (!visit(part.expr)) return false;
    }
  }
  return true;
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

void WalkExpr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  ForEachChild(e, [&](const Expr& c) {
    WalkExpr(c, fn);
    return true;
  });
}

bool AnyExpr(const Expr& e, const std::function<bool(const Expr&)>& pred) {
  return pred(e) ||
         !ForEachChild(e, [&](const Expr& c) { return !AnyExpr(c, pred); });
}

bool ReferencesVar(const Expr& e, const std::string& var) {
  return AnyExpr(e, [&](const Expr& x) {
    return x.kind == ExprKind::kVarRef && x.var == var;
  });
}

bool AppendNormStep(const PathStep& step, bool* pending_skip,
                    std::vector<NormStep>* steps) {
  using Kind = NodeTestSpec::Kind;
  const NodeTestSpec& t = step.test;
  StepTest test;
  bool skip = *pending_skip;
  switch (step.axis) {
    case PathAxis::kDescendantOrSelf:
      if (t.kind != Kind::kAnyNode) return false;
      *pending_skip = true;
      return true;
    case PathAxis::kSelf:
      return t.kind == Kind::kAnyNode && !*pending_skip;
    case PathAxis::kParent:
    case PathAxis::kAncestor:
    case PathAxis::kAncestorOrSelf:
      // Upward navigation has no linear-pattern form.
      return false;
    case PathAxis::kAttribute:
      if (t.kind == Kind::kName) {
        test = AttributeTest(t.name);
      } else if (t.kind == Kind::kAnyNode) {
        test = AnyAttributeTest();
      }
      break;
    case PathAxis::kDescendant:
      skip = true;
      [[fallthrough]];
    case PathAxis::kChild:
      switch (t.kind) {
        case Kind::kName:
          test = ElementTest(t.name);
          break;
        case Kind::kAnyNode:
          test = ChildNodeTest();
          break;
        case Kind::kText:
          test = KindTextTest();
          break;
        case Kind::kComment:
          test = KindCommentTest();
          break;
        case Kind::kPi:
          test = KindPiTest(t.name.local);
          break;
        case Kind::kDocument:
          break;
      }
      break;
  }
  if (test.IsEmpty()) return false;
  steps->push_back(NormStep{skip, test});
  *pending_skip = false;
  return true;
}

bool IsNameOnlyStep(const PathStep& step) {
  if (step.axis == PathAxis::kDescendantOrSelf) {
    return step.test.kind == NodeTestSpec::Kind::kAnyNode;
  }
  return step.test.kind == NodeTestSpec::Kind::kName &&
         (step.axis == PathAxis::kChild ||
          step.axis == PathAxis::kDescendant ||
          step.axis == PathAxis::kAttribute);
}

}  // namespace xqdb
