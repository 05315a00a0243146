#ifndef XQDB_XQUERY_AST_H_
#define XQDB_XQUERY_AST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/source_span.h"
#include "xdm/atomic.h"
#include "xdm/compare.h"
#include "xml/qname.h"

namespace xqdb {

struct Expr;
struct NormStep;  // xpath/pattern.h

/// A resolved node test in a query path step. Namespaces are resolved at
/// parse time against the query prolog (default element namespace applies
/// to element name tests, never to attribute tests), and the name is
/// compiled to pool ids then, so evaluation compares integers only.
struct NodeTestSpec {
  enum class Kind {
    kName,      // qname / * / ns:* / *:local
    kAnyNode,   // node()
    kText,      // text()
    kComment,   // comment()
    kPi,        // processing-instruction(target?)
    kDocument,  // document-node()
  };
  Kind kind = Kind::kName;
  NameTest name;  // kName; for kPi only `local` (the target) is used
  /// The step's principal node kind: a name test on the attribute axis
  /// matches attributes, on every other axis elements (so `self::*` on an
  /// attribute is empty, as in the index-pattern algebra).
  bool attribute_axis = false;
};

enum class PathAxis {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kSelf,
  kAttribute,
  kParent,
  kAncestor,
  kAncestorOrSelf,
};

/// One step of a path expression: either an axis step (axis + node test) or
/// an arbitrary expression evaluated with the step's focus (e.g. the
/// `custid/xs:double(.)` idiom from the paper's Tip 1).
struct PathStep {
  bool is_axis_step = true;
  PathAxis axis = PathAxis::kChild;
  NodeTestSpec test;
  std::unique_ptr<Expr> expr;  // when !is_axis_step
  std::vector<std::unique_ptr<Expr>> predicates;
};

/// FLWOR clauses. `for` clauses iterate; `let` clauses bind whole sequences
/// — including empty ones, which is the §3.4 pitfall.
struct FlworClause {
  enum class Kind { kFor, kLet } kind = Kind::kFor;
  std::string var;  // without '$'
  std::unique_ptr<Expr> expr;
};

struct OrderSpec {
  std::unique_ptr<Expr> key;
  bool descending = false;
};

/// Content item of a direct element constructor.
struct ConstructorContent {
  bool is_text = false;
  std::string text;            // literal character content
  std::unique_ptr<Expr> expr;  // enclosed {expr}
};

/// Attribute of a direct element constructor. The value is a concatenation
/// of literal runs and enclosed expressions.
struct ConstructorAttr {
  NameId name = kInvalidName;
  std::vector<ConstructorContent> value_parts;
};

enum class ArithOp { kAdd, kSub, kMul, kDiv, kIDiv, kMod };

enum class ExprKind {
  kLiteral,         // atomic constant
  kEmptySequence,   // ()
  kSequence,        // comma operator
  kVarRef,
  kContextItem,     // .
  kPath,
  kFlwor,
  kQuantified,      // some/every $v in e satisfies e
  kIf,
  kOr,
  kAnd,
  kGeneralCompare,
  kValueCompare,
  kNodeIs,          // is
  kUnion,
  kIntersect,
  kExcept,
  kRange,           // to
  kArith,
  kUnaryMinus,
  kFunctionCall,
  kCastAs,          // cast as xs:type (with optional '?')
  kDirectElement,
  kXmlColumn,       // db2-fn:xmlcolumn('TABLE.COLUMN')
};

/// A single AST node. One struct with a kind tag keeps the tree compact and
/// the recursive evaluator a single switch.
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind;

  /// Byte range of this expression in the query text it was parsed from
  /// (diagnostics; {0,0} when the producing parser predates span stamping).
  SourceSpan span;

  // kLiteral
  AtomicValue literal;

  // kVarRef / kQuantified (bound var)
  std::string var;

  // Generic children. Meaning by kind:
  //   kSequence: items; kOr/kAnd/compare/kUnion/...: [lhs, rhs];
  //   kIf: [cond, then, else]; kQuantified: [in-expr, satisfies-expr];
  //   kFunctionCall: arguments; kUnaryMinus/kCastAs: [operand];
  //   kFlwor: [return-expr] (+ optional where at index 1 — see flags).
  std::vector<std::unique_ptr<Expr>> children;

  // kPath
  bool absolute = false;        // leading '/'
  bool absolute_slashslash = false;  // leading '//'
  std::vector<PathStep> steps;

  // kFlwor
  std::vector<FlworClause> clauses;
  std::unique_ptr<Expr> where;
  std::vector<OrderSpec> order_by;
  /// Offset of the 'return' keyword — the insertion point for the linter's
  /// "where exists($v) " fix-it (Tip 7). 0 when unknown.
  size_t return_kw_pos = 0;

  // kQuantified
  bool quantifier_every = false;

  // kGeneralCompare / kValueCompare
  CompareOp cmp_op = CompareOp::kEq;

  // kArith
  ArithOp arith_op = ArithOp::kAdd;

  // kFunctionCall: resolved function name ("fn:data", "xs:double", ...).
  std::string fn_name;

  // kCastAs
  AtomicType cast_target = AtomicType::kString;
  bool cast_optional = false;   // "?" — empty sequence allowed
  bool castable_test = false;   // "castable as": returns a boolean

  // kDirectElement
  NameId elem_name = kInvalidName;
  std::vector<ConstructorAttr> ctor_attrs;
  std::vector<ConstructorContent> ctor_content;

  // kXmlColumn
  std::string table_name;
  std::string column_name;
};

/// Debug dump (single line, s-expression style).
std::string ExprToString(const Expr& e);

/// Pre-order visit of `e` and every expression below it: generic children,
/// path-step expressions and predicates, FLWOR clauses, where and order-by
/// keys, constructor content and attribute values. This walk and AnyExpr
/// share the one enumeration of an Expr's child slots.
void WalkExpr(const Expr& e, const std::function<void(const Expr&)>& fn);

/// True when `pred` holds for `e` or an expression below it.
bool AnyExpr(const Expr& e, const std::function<bool(const Expr&)>& pred);

/// True when `e` references $var anywhere below it (rebindings that shadow
/// the variable are not tracked).
bool ReferencesVar(const Expr& e, const std::string& var);

/// Appends one axis step to `steps` in the index-pattern algebra
/// (xpath/pattern.h): the one translation of a query path step that
/// predicate extraction, static typing, batch kernels and covering
/// aggregates share. A bare `//` (descendant-or-self::node()) sets
/// `pending_skip`, which the next consuming step absorbs; self::node() adds
/// nothing. Returns false when the step has no linear form (upward axes,
/// document-node(), any other self or descendant-or-self step, a kind test
/// on the attribute axis, self::node() right after a bare `//`): callers
/// then give up on the path.
bool AppendNormStep(const PathStep& step, bool* pending_skip,
                    std::vector<NormStep>* steps);

/// The step shapes batch kernels and covering aggregates model, checked
/// before AppendNormStep: a bare `//`, or a name test on the child,
/// descendant or attribute axis. Their exactness arguments assume untyped
/// element and attribute values, so kind tests stay out.
bool IsNameOnlyStep(const PathStep& step);

}  // namespace xqdb

#endif  // XQDB_XQUERY_AST_H_
