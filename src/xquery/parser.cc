#include "xquery/parser.h"

#include <cctype>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "xquery/lexer.h"

namespace xqdb {

namespace {

std::unique_ptr<Expr> MakeExpr(ExprKind k) { return std::make_unique<Expr>(k); }

/// Canonical prefix for a known function/type namespace URI, or nullopt.
std::optional<std::string> CanonicalModule(std::string_view uri) {
  if (uri == "http://www.w3.org/2001/XMLSchema") return "xs";
  if (uri == "http://www.w3.org/2005/xpath-functions") return "fn";
  if (uri == "http://www.w3.org/2005/xpath-datatypes") return "xdt";
  if (uri == "http://www.ibm.com/xmlns/prod/db2/functions") return "db2-fn";
  return std::nullopt;
}

std::optional<AtomicType> AtomicTypeByName(std::string_view canonical) {
  if (canonical == "xs:string") return AtomicType::kString;
  if (canonical == "xs:double") return AtomicType::kDouble;
  if (canonical == "xs:decimal") return AtomicType::kDouble;
  if (canonical == "xs:float") return AtomicType::kDouble;
  if (canonical == "xs:integer" || canonical == "xs:int" ||
      canonical == "xs:long") {
    return AtomicType::kInteger;
  }
  if (canonical == "xs:boolean") return AtomicType::kBoolean;
  if (canonical == "xs:date") return AtomicType::kDate;
  if (canonical == "xs:dateTime") return AtomicType::kDateTime;
  if (canonical == "xs:untypedAtomic" || canonical == "xdt:untypedAtomic") {
    return AtomicType::kUntypedAtomic;
  }
  return std::nullopt;
}

class Parser {
 public:
  Parser(std::string_view text, StaticContext* sctx)
      : cur_(text), sctx_(sctx) {}

  Result<std::unique_ptr<Expr>> ParseQueryBody(bool parse_prolog) {
    if (parse_prolog) XQDB_RETURN_IF_ERROR(ParseProlog());
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> body, ParseExprSequence());
    cur_.SkipWs();
    if (!cur_.AtEnd()) {
      return Status::ParseError("unexpected trailing input at " +
                                cur_.Location());
    }
    return body;
  }

 private:
  // ----- Span stamping --------------------------------------------------

  /// Records [start, here-sans-trailing-ws) as `e`'s span unless a narrower
  /// span is already present (sub-expressions stamp bottom-up; an already
  /// stamped node passed through a wrapper keeps its tighter range).
  void Stamp(Expr* e, size_t start) {
    if (e == nullptr || e->span.IsValid()) return;
    size_t end = cur_.pos();
    std::string_view in = cur_.input();
    while (end > start &&
           std::isspace(static_cast<unsigned char>(in[end - 1]))) {
      --end;
    }
    if (end > start) e->span = SourceSpan{start, end};
  }

  /// Skips whitespace and returns the position — the span start for the
  /// expression about to be parsed.
  size_t SpanStart() {
    cur_.SkipWs();
    return cur_.pos();
  }

  // ----- Prolog ---------------------------------------------------------

  Status ParseProlog() {
    for (;;) {
      size_t mark = cur_.pos();
      if (!cur_.ConsumeKeyword("declare")) return Status::OK();
      if (cur_.ConsumeKeyword("default")) {
        if (!cur_.ConsumeKeyword("element")) {
          return Status::ParseError(
              "only 'declare default element namespace' is supported");
        }
        if (!cur_.ConsumeKeyword("namespace")) {
          return Status::ParseError("expected 'namespace' at " +
                                    cur_.Location());
        }
        XQDB_ASSIGN_OR_RETURN(std::string uri, cur_.ParseStringLiteral());
        sctx_->SetDefaultElementNamespace(std::move(uri));
      } else if (cur_.ConsumeKeyword("namespace")) {
        cur_.SkipWs();
        XQDB_ASSIGN_OR_RETURN(std::string prefix, cur_.ParseNCName());
        if (!cur_.ConsumeToken("=")) {
          return Status::ParseError("expected '=' in namespace declaration");
        }
        XQDB_ASSIGN_OR_RETURN(std::string uri, cur_.ParseStringLiteral());
        sctx_->DeclareNamespace(std::move(prefix), std::move(uri));
      } else if (cur_.ConsumeKeyword("construction")) {
        if (cur_.ConsumeKeyword("strip")) {
          sctx_->set_construction_mode(StaticContext::ConstructionMode::kStrip);
        } else if (cur_.ConsumeKeyword("preserve")) {
          sctx_->set_construction_mode(
              StaticContext::ConstructionMode::kPreserve);
        } else {
          return Status::ParseError("expected 'strip' or 'preserve'");
        }
      } else {
        cur_.set_pos(mark);
        return Status::OK();
      }
      if (!cur_.ConsumeToken(";")) {
        return Status::ParseError("expected ';' after prolog declaration at " +
                                  cur_.Location());
      }
    }
  }

  // ----- Names ----------------------------------------------------------

  struct RawQName {
    std::string prefix;
    std::string local;
  };

  Result<RawQName> ParseQNameRaw() {
    cur_.SkipWs();
    XQDB_ASSIGN_OR_RETURN(std::string first, cur_.ParseNCName());
    if (cur_.Peek() == ':' && IsNCNameStart(cur_.PeekAt(1))) {
      cur_.Bump();
      XQDB_ASSIGN_OR_RETURN(std::string local, cur_.ParseNCName());
      return RawQName{std::move(first), std::move(local)};
    }
    return RawQName{"", std::move(first)};
  }

  /// Resolves a namespace prefix with constructor overlays taking priority.
  Result<std::string> ResolveNs(const std::string& prefix,
                                bool is_element_name) {
    for (auto it = ns_overlays_.rbegin(); it != ns_overlays_.rend(); ++it) {
      if (prefix.empty() && is_element_name) {
        auto f = it->find("");
        if (f != it->end()) return f->second;
      }
      if (!prefix.empty()) {
        auto f = it->find(prefix);
        if (f != it->end()) return f->second;
      }
    }
    if (prefix.empty()) {
      return is_element_name ? sctx_->default_element_namespace()
                             : std::string();
    }
    auto uri = sctx_->ResolvePrefix(prefix);
    if (!uri) {
      return Status::ParseError("undeclared namespace prefix '" + prefix +
                                "' at " + cur_.Location());
    }
    return *uri;
  }

  // ----- Expressions ----------------------------------------------------

  Result<std::unique_ptr<Expr>> ParseExprSequence() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> first, ParseExprSingle());
    if (!cur_.ConsumeToken(",")) return first;
    auto seq = MakeExpr(ExprKind::kSequence);
    seq->children.push_back(std::move(first));
    do {
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> next, ParseExprSingle());
      seq->children.push_back(std::move(next));
    } while (cur_.ConsumeToken(","));
    return seq;
  }

  bool PeekVarBindingKeyword(std::string_view kw) {
    size_t mark = cur_.pos();
    bool ok = cur_.ConsumeKeyword(kw);
    if (ok) {
      cur_.SkipWs();
      ok = cur_.Peek() == '$';
    }
    cur_.set_pos(mark);
    return ok;
  }

  Result<std::unique_ptr<Expr>> ParseExprSingle() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExprSingleInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<Expr>> ParseExprSingleInner() {
    cur_.SkipWs();
    if (PeekVarBindingKeyword("for") || PeekVarBindingKeyword("let")) {
      return ParseFlwor();
    }
    if (PeekVarBindingKeyword("some") || PeekVarBindingKeyword("every")) {
      return ParseQuantified();
    }
    if (cur_.PeekKeyword("if")) {
      size_t mark = cur_.pos();
      cur_.ConsumeKeyword("if");
      cur_.SkipWs();
      if (cur_.Peek() == '(') return ParseIfTail();
      cur_.set_pos(mark);
    }
    return ParseOrExpr();
  }

  Result<std::string> ParseDollarVar() {
    cur_.SkipWs();
    if (cur_.Peek() != '$') {
      return Status::ParseError("expected '$variable' at " + cur_.Location());
    }
    cur_.Bump();
    XQDB_ASSIGN_OR_RETURN(RawQName name, ParseQNameRaw());
    if (!name.prefix.empty()) {
      return Status::Unsupported("namespace-prefixed variables");
    }
    return std::move(name.local);
  }

  Result<std::unique_ptr<Expr>> ParseFlwor() {
    auto flwor = MakeExpr(ExprKind::kFlwor);
    for (;;) {
      if (PeekVarBindingKeyword("for")) {
        cur_.ConsumeKeyword("for");
        do {
          FlworClause clause;
          clause.kind = FlworClause::Kind::kFor;
          XQDB_ASSIGN_OR_RETURN(clause.var, ParseDollarVar());
          if (!cur_.ConsumeKeyword("in")) {
            return Status::ParseError("expected 'in' in for clause at " +
                                      cur_.Location());
          }
          XQDB_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
          flwor->clauses.push_back(std::move(clause));
        } while (cur_.ConsumeToken(","));
      } else if (PeekVarBindingKeyword("let")) {
        cur_.ConsumeKeyword("let");
        do {
          FlworClause clause;
          clause.kind = FlworClause::Kind::kLet;
          XQDB_ASSIGN_OR_RETURN(clause.var, ParseDollarVar());
          if (!cur_.ConsumeToken(":=")) {
            return Status::ParseError("expected ':=' in let clause at " +
                                      cur_.Location());
          }
          XQDB_ASSIGN_OR_RETURN(clause.expr, ParseExprSingle());
          flwor->clauses.push_back(std::move(clause));
        } while (cur_.ConsumeToken(","));
      } else {
        break;
      }
    }
    if (cur_.ConsumeKeyword("where")) {
      XQDB_ASSIGN_OR_RETURN(flwor->where, ParseExprSingle());
    }
    if (cur_.PeekKeyword("order")) {
      cur_.ConsumeKeyword("order");
      if (!cur_.ConsumeKeyword("by")) {
        return Status::ParseError("expected 'by' after 'order'");
      }
      do {
        OrderSpec spec;
        XQDB_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
        if (cur_.ConsumeKeyword("descending")) {
          spec.descending = true;
        } else {
          cur_.ConsumeKeyword("ascending");
        }
        flwor->order_by.push_back(std::move(spec));
      } while (cur_.ConsumeToken(","));
    }
    cur_.SkipWs();
    flwor->return_kw_pos = cur_.pos();
    if (!cur_.ConsumeKeyword("return")) {
      return Status::ParseError("expected 'return' in FLWOR at " +
                                cur_.Location());
    }
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> ret, ParseExprSingle());
    flwor->children.push_back(std::move(ret));
    return flwor;
  }

  Result<std::unique_ptr<Expr>> ParseQuantified() {
    bool every = cur_.PeekKeyword("every");
    cur_.ConsumeKeyword(every ? "every" : "some");
    // Multiple bindings desugar to nested quantified expressions.
    std::vector<std::pair<std::string, std::unique_ptr<Expr>>> bindings;
    do {
      XQDB_ASSIGN_OR_RETURN(std::string var, ParseDollarVar());
      if (!cur_.ConsumeKeyword("in")) {
        return Status::ParseError("expected 'in' in quantified expression");
      }
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> in_expr, ParseExprSingle());
      bindings.emplace_back(std::move(var), std::move(in_expr));
    } while (cur_.ConsumeToken(","));
    if (!cur_.ConsumeKeyword("satisfies")) {
      return Status::ParseError("expected 'satisfies' at " + cur_.Location());
    }
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> body, ParseExprSingle());
    for (auto it = bindings.rbegin(); it != bindings.rend(); ++it) {
      auto q = MakeExpr(ExprKind::kQuantified);
      q->quantifier_every = every;
      q->var = std::move(it->first);
      q->children.push_back(std::move(it->second));
      q->children.push_back(std::move(body));
      body = std::move(q);
    }
    return body;
  }

  Result<std::unique_ptr<Expr>> ParseIfTail() {
    if (!cur_.ConsumeToken("(")) {
      return Status::ParseError("expected '(' after 'if'");
    }
    auto e = MakeExpr(ExprKind::kIf);
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> cond, ParseExprSequence());
    if (!cur_.ConsumeToken(")")) {
      return Status::ParseError("expected ')' after if condition");
    }
    if (!cur_.ConsumeKeyword("then")) {
      return Status::ParseError("expected 'then'");
    }
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> then_e, ParseExprSingle());
    if (!cur_.ConsumeKeyword("else")) {
      return Status::ParseError("expected 'else'");
    }
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> else_e, ParseExprSingle());
    e->children.push_back(std::move(cond));
    e->children.push_back(std::move(then_e));
    e->children.push_back(std::move(else_e));
    return e;
  }

  Result<std::unique_ptr<Expr>> ParseOrExpr() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAndExpr());
    while (cur_.ConsumeKeyword("or")) {
      auto e = MakeExpr(ExprKind::kOr);
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAndExpr());
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAndExpr() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseComparisonExpr());
    while (cur_.ConsumeKeyword("and")) {
      auto e = MakeExpr(ExprKind::kAnd);
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseComparisonExpr());
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseComparisonExpr() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseComparisonInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<Expr>> ParseComparisonInner() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseRangeExpr());
    cur_.SkipWs();

    struct OpSpec {
      const char* text;
      ExprKind kind;
      CompareOp op;
      bool keyword;
    };
    static const OpSpec kOps[] = {
        {"eq", ExprKind::kValueCompare, CompareOp::kEq, true},
        {"ne", ExprKind::kValueCompare, CompareOp::kNe, true},
        {"lt", ExprKind::kValueCompare, CompareOp::kLt, true},
        {"le", ExprKind::kValueCompare, CompareOp::kLe, true},
        {"gt", ExprKind::kValueCompare, CompareOp::kGt, true},
        {"ge", ExprKind::kValueCompare, CompareOp::kGe, true},
        {"!=", ExprKind::kGeneralCompare, CompareOp::kNe, false},
        {"<=", ExprKind::kGeneralCompare, CompareOp::kLe, false},
        {">=", ExprKind::kGeneralCompare, CompareOp::kGe, false},
        {"=", ExprKind::kGeneralCompare, CompareOp::kEq, false},
        {"<", ExprKind::kGeneralCompare, CompareOp::kLt, false},
        {">", ExprKind::kGeneralCompare, CompareOp::kGt, false},
    };

    if (cur_.ConsumeKeyword("is")) {
      auto e = MakeExpr(ExprKind::kNodeIs);
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseRangeExpr());
      e->children.push_back(std::move(rhs));
      return e;
    }
    for (const OpSpec& spec : kOps) {
      bool matched = spec.keyword ? cur_.ConsumeKeyword(spec.text)
                                  : cur_.ConsumeToken(spec.text);
      if (matched) {
        auto e = MakeExpr(spec.kind);
        e->cmp_op = spec.op;
        e->children.push_back(std::move(lhs));
        XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseRangeExpr());
        e->children.push_back(std::move(rhs));
        return e;
      }
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseRangeExpr() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseRangeInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<Expr>> ParseRangeInner() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditiveExpr());
    if (cur_.ConsumeKeyword("to")) {
      auto e = MakeExpr(ExprKind::kRange);
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditiveExpr());
      e->children.push_back(std::move(rhs));
      return e;
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAdditiveExpr() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMultiplicative());
    for (;;) {
      cur_.SkipWs();
      ArithOp op;
      if (cur_.ConsumeToken("+")) {
        op = ArithOp::kAdd;
      } else if (cur_.Peek() == '-' && !cur_.LookingAt("->")) {
        cur_.Bump();
        op = ArithOp::kSub;
      } else {
        return lhs;
      }
      auto e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMultiplicative());
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnionExpr());
    for (;;) {
      ArithOp op;
      if (cur_.ConsumeToken("*")) {
        op = ArithOp::kMul;
      } else if (cur_.ConsumeKeyword("div")) {
        op = ArithOp::kDiv;
      } else if (cur_.ConsumeKeyword("idiv")) {
        op = ArithOp::kIDiv;
      } else if (cur_.ConsumeKeyword("mod")) {
        op = ArithOp::kMod;
      } else {
        return lhs;
      }
      auto e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseUnionExpr());
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  Result<std::unique_ptr<Expr>> ParseUnionExpr() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseIntersectExcept());
    for (;;) {
      if (cur_.ConsumeKeyword("union") || cur_.ConsumeToken("|")) {
        auto e = MakeExpr(ExprKind::kUnion);
        e->children.push_back(std::move(lhs));
        XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs,
                              ParseIntersectExcept());
        e->children.push_back(std::move(rhs));
        lhs = std::move(e);
      } else {
        return lhs;
      }
    }
  }

  Result<std::unique_ptr<Expr>> ParseIntersectExcept() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseCastExpr());
    for (;;) {
      ExprKind kind;
      if (cur_.ConsumeKeyword("intersect")) {
        kind = ExprKind::kIntersect;
      } else if (cur_.ConsumeKeyword("except")) {
        kind = ExprKind::kExcept;
      } else {
        return lhs;
      }
      auto e = MakeExpr(kind);
      e->children.push_back(std::move(lhs));
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseCastExpr());
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  Result<std::unique_ptr<Expr>> ParseCastExpr() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseCastInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<Expr>> ParseCastInner() {
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnaryExpr());
    bool castable = false;
    if (cur_.PeekKeyword("castable")) {
      cur_.ConsumeKeyword("castable");
      castable = true;
    }
    if (castable || cur_.PeekKeyword("cast")) {
      if (!castable) cur_.ConsumeKeyword("cast");
      if (!cur_.ConsumeKeyword("as")) {
        return Status::ParseError("expected 'as' after 'cast'");
      }
      XQDB_ASSIGN_OR_RETURN(RawQName type_name, ParseQNameRaw());
      XQDB_ASSIGN_OR_RETURN(std::string uri,
                            ResolveNs(type_name.prefix, false));
      auto canon = CanonicalModule(uri);
      std::string full =
          (canon ? *canon : type_name.prefix) + ":" + type_name.local;
      auto type = AtomicTypeByName(full);
      if (!type) {
        return Status::Unsupported("cast target type " + full);
      }
      auto e = MakeExpr(ExprKind::kCastAs);
      e->cast_target = *type;
      e->castable_test = castable;
      cur_.SkipWs();
      if (cur_.Peek() == '?') {
        cur_.Bump();
        e->cast_optional = true;
      }
      e->children.push_back(std::move(lhs));
      return e;
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseUnaryExpr() {
    cur_.SkipWs();
    if (cur_.Peek() == '-' &&
        !std::isdigit(static_cast<unsigned char>(cur_.PeekAt(1)))) {
      cur_.Bump();
      auto e = MakeExpr(ExprKind::kUnaryMinus);
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseUnaryExpr());
      e->children.push_back(std::move(inner));
      return e;
    }
    if (cur_.Peek() == '-') {
      // Negative numeric literal.
      cur_.Bump();
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> num, ParseNumberLiteral());
      if (num->literal.type() == AtomicType::kInteger) {
        num->literal = AtomicValue::Integer(-num->literal.integer_value());
      } else {
        num->literal = AtomicValue::Double(-num->literal.double_value());
      }
      return ParsePathContinuation(std::move(num));
    }
    return ParsePathExpr();
  }

  // ----- Paths ----------------------------------------------------------

  Result<std::unique_ptr<Expr>> ParsePathExpr() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParsePathInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<Expr>> ParsePathInner() {
    cur_.SkipWs();
    auto path = MakeExpr(ExprKind::kPath);
    if (cur_.LookingAt("//")) {
      cur_.Bump();
      cur_.Bump();
      path->absolute = true;
      path->absolute_slashslash = true;
    } else if (cur_.Peek() == '/') {
      cur_.Bump();
      path->absolute = true;
      cur_.SkipWs();
      if (!StartsStep()) {
        return path;  // Lone '/': the document root.
      }
    }
    XQDB_RETURN_IF_ERROR(ParseRelativeSteps(path.get()));
    // A relative "path" consisting of a single expression step with no
    // predicates is just that expression (no path semantics apply).
    if (!path->absolute && path->steps.size() == 1 &&
        !path->steps[0].is_axis_step && path->steps[0].predicates.empty()) {
      return std::move(path->steps[0].expr);
    }
    return path;
  }

  /// After a primary expression has been parsed elsewhere, allow '/'
  /// continuations (used for negative literals, though nonsensical, to keep
  /// the grammar uniform).
  Result<std::unique_ptr<Expr>> ParsePathContinuation(
      std::unique_ptr<Expr> first) {
    cur_.SkipWs();
    if (cur_.Peek() != '/') return first;
    auto path = MakeExpr(ExprKind::kPath);
    PathStep step0;
    step0.is_axis_step = false;
    step0.expr = std::move(first);
    path->steps.push_back(std::move(step0));
    XQDB_RETURN_IF_ERROR(ParseRemainingSteps(path.get()));
    return path;
  }

  bool StartsStep() {
    cur_.SkipWs();
    char c = cur_.Peek();
    if (c == '@' || c == '*' || c == '$' || c == '(' || c == '.' ||
        c == '"' || c == '\'' || c == '<' ||
        std::isdigit(static_cast<unsigned char>(c))) {
      return true;
    }
    return IsNCNameStart(c);
  }

  Status ParseRelativeSteps(Expr* path) {
    XQDB_ASSIGN_OR_RETURN(PathStep first, ParseStep());
    path->steps.push_back(std::move(first));
    return ParseRemainingSteps(path);
  }

  Status ParseRemainingSteps(Expr* path) {
    for (;;) {
      cur_.SkipWs();
      if (cur_.LookingAt("//")) {
        cur_.Bump();
        cur_.Bump();
        // '//'  ==  /descendant-or-self::node()/
        PathStep dos;
        dos.is_axis_step = true;
        dos.axis = PathAxis::kDescendantOrSelf;
        dos.test.kind = NodeTestSpec::Kind::kAnyNode;
        path->steps.push_back(std::move(dos));
      } else if (cur_.Peek() == '/') {
        cur_.Bump();
      } else {
        return Status::OK();
      }
      XQDB_ASSIGN_OR_RETURN(PathStep step, ParseStep());
      path->steps.push_back(std::move(step));
    }
  }

  Result<PathStep> ParseStep() {
    cur_.SkipWs();
    PathStep step;
    char c = cur_.Peek();

    if (cur_.LookingAt("..")) {
      cur_.Bump();
      cur_.Bump();
      step.axis = PathAxis::kParent;
      step.test.kind = NodeTestSpec::Kind::kAnyNode;
      XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
      return step;
    }
    if (c == '@') {
      cur_.Bump();
      step.axis = PathAxis::kAttribute;
      XQDB_RETURN_IF_ERROR(ParseNodeTest(&step.test, /*attribute_axis=*/true));
      XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
      return step;
    }
    if (c == '*') {
      step.axis = PathAxis::kChild;
      XQDB_RETURN_IF_ERROR(
          ParseNodeTest(&step.test, /*attribute_axis=*/false));
      XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
      return step;
    }
    if (IsNCNameStart(c)) {
      // Could be: axis::test, kind test, function call, or name test.
      size_t mark = cur_.pos();
      std::string first = cur_.ParseNCName().value();
      if (cur_.LookingAt("::")) {
        cur_.Bump();
        cur_.Bump();
        if (first == "child") {
          step.axis = PathAxis::kChild;
        } else if (first == "descendant") {
          step.axis = PathAxis::kDescendant;
        } else if (first == "descendant-or-self") {
          step.axis = PathAxis::kDescendantOrSelf;
        } else if (first == "self") {
          step.axis = PathAxis::kSelf;
        } else if (first == "attribute") {
          step.axis = PathAxis::kAttribute;
        } else if (first == "parent") {
          step.axis = PathAxis::kParent;
        } else if (first == "ancestor") {
          step.axis = PathAxis::kAncestor;
        } else if (first == "ancestor-or-self") {
          step.axis = PathAxis::kAncestorOrSelf;
        } else {
          return Status::Unsupported("axis '" + first + "::'");
        }
        XQDB_RETURN_IF_ERROR(ParseNodeTest(
            &step.test, step.axis == PathAxis::kAttribute));
        XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
        return step;
      }
      bool is_call_like =
          cur_.Peek() == '(' ||
          (cur_.Peek() == ':' && IsNCNameStart(cur_.PeekAt(1)));
      cur_.set_pos(mark);
      if (is_call_like) {
        // Kind tests look like calls; ParseNodeTest handles them. Real
        // function calls become expression steps.
        if (first == "node" || first == "text" || first == "comment" ||
            first == "processing-instruction" || first == "document-node") {
          step.axis = PathAxis::kChild;
          XQDB_RETURN_IF_ERROR(
              ParseNodeTest(&step.test, /*attribute_axis=*/false));
          XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
          return step;
        }
        // Distinguish "prefix:name(" call from "prefix:name" name test.
        size_t scan = cur_.pos();
        std::string full = cur_.ParseNCName().value();
        if (cur_.Peek() == ':' && IsNCNameStart(cur_.PeekAt(1))) {
          cur_.Bump();
          (void)cur_.ParseNCName().value();
        }
        bool is_call = cur_.Peek() == '(';
        cur_.set_pos(scan);
        (void)full;
        if (is_call) {
          step.is_axis_step = false;
          XQDB_ASSIGN_OR_RETURN(step.expr, ParsePrimaryExpr());
          XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
          return step;
        }
      }
      // Plain name test (child axis).
      step.axis = PathAxis::kChild;
      XQDB_RETURN_IF_ERROR(
          ParseNodeTest(&step.test, /*attribute_axis=*/false));
      XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
      return step;
    }
    // Primary expression step ('.', '$x', literal, '(...)', constructor).
    step.is_axis_step = false;
    XQDB_ASSIGN_OR_RETURN(step.expr, ParsePrimaryExpr());
    XQDB_RETURN_IF_ERROR(ParsePredicates(&step));
    return step;
  }

  Status ParsePredicates(PathStep* step) {
    for (;;) {
      cur_.SkipWs();
      if (cur_.Peek() != '[') return Status::OK();
      cur_.Bump();
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> pred, ParseExprSequence());
      if (!cur_.ConsumeToken("]")) {
        return Status::ParseError("expected ']' at " + cur_.Location());
      }
      step->predicates.push_back(std::move(pred));
    }
  }

  Status ParseNodeTest(NodeTestSpec* test, bool attribute_axis) {
    NamePool* pool = NamePool::Global();
    test->name = NameTest{};
    test->attribute_axis = attribute_axis;
    cur_.SkipWs();
    if (cur_.Peek() == '*') {
      cur_.Bump();
      test->kind = NodeTestSpec::Kind::kName;
      if (cur_.Peek() == ':' && IsNCNameStart(cur_.PeekAt(1))) {
        cur_.Bump();
        XQDB_ASSIGN_OR_RETURN(std::string local, cur_.ParseNCName());
        XQDB_ASSIGN_OR_RETURN(test->name.local, pool->InternLocal(local));
      }
      return Status::OK();
    }
    XQDB_ASSIGN_OR_RETURN(std::string first, cur_.ParseNCName());
    if (cur_.Peek() == '(') {
      cur_.Bump();
      cur_.SkipWs();
      if (first == "node") {
        test->kind = NodeTestSpec::Kind::kAnyNode;
      } else if (first == "text") {
        test->kind = NodeTestSpec::Kind::kText;
      } else if (first == "comment") {
        test->kind = NodeTestSpec::Kind::kComment;
      } else if (first == "document-node") {
        test->kind = NodeTestSpec::Kind::kDocument;
      } else if (first == "processing-instruction") {
        test->kind = NodeTestSpec::Kind::kPi;
        cur_.SkipWs();
        if (cur_.Peek() != ')') {
          std::string target;
          if (cur_.Peek() == '\'' || cur_.Peek() == '"') {
            XQDB_ASSIGN_OR_RETURN(target, cur_.ParseStringLiteral());
          } else {
            XQDB_ASSIGN_OR_RETURN(target, cur_.ParseNCName());
          }
          XQDB_ASSIGN_OR_RETURN(test->name.local, pool->InternLocal(target));
        }
      } else {
        return Status::ParseError("unknown kind test '" + first + "()'");
      }
      cur_.SkipWs();
      if (cur_.Peek() != ')') {
        return Status::ParseError("expected ')' in kind test at " +
                                  cur_.Location());
      }
      cur_.Bump();
      return Status::OK();
    }
    // Name test.
    test->kind = NodeTestSpec::Kind::kName;
    std::string prefix;
    if (cur_.Peek() == ':' && cur_.PeekAt(1) == '*') {
      cur_.Bump();
      cur_.Bump();
      prefix = std::move(first);
    } else {
      std::string local = std::move(first);
      if (cur_.Peek() == ':' && IsNCNameStart(cur_.PeekAt(1))) {
        cur_.Bump();
        prefix = std::move(local);
        XQDB_ASSIGN_OR_RETURN(local, cur_.ParseNCName());
      }
      XQDB_ASSIGN_OR_RETURN(test->name.local, pool->InternLocal(local));
    }
    XQDB_ASSIGN_OR_RETURN(std::string uri,
                          ResolveNs(prefix, /*is_element_name=*/
                                    !attribute_axis));
    XQDB_ASSIGN_OR_RETURN(test->name.ns, pool->InternNamespace(uri));
    return Status::OK();
  }

  // ----- Primary expressions --------------------------------------------

  Result<std::unique_ptr<Expr>> ParseNumberLiteral() {
    cur_.SkipWs();
    size_t start = cur_.pos();
    bool has_dot = false, has_exp = false;
    while (!cur_.AtEnd()) {
      char c = cur_.Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        cur_.Bump();
      } else if (c == '.' && !has_dot && !has_exp &&
                 std::isdigit(static_cast<unsigned char>(cur_.PeekAt(1)))) {
        has_dot = true;
        cur_.Bump();
      } else if ((c == 'e' || c == 'E') && !has_exp) {
        char n = cur_.PeekAt(1);
        if (std::isdigit(static_cast<unsigned char>(n)) ||
            ((n == '+' || n == '-') &&
             std::isdigit(static_cast<unsigned char>(cur_.PeekAt(2))))) {
          has_exp = true;
          cur_.Bump();
          if (cur_.Peek() == '+' || cur_.Peek() == '-') cur_.Bump();
        } else {
          break;
        }
      } else {
        break;
      }
    }
    std::string text(cur_.input().substr(start, cur_.pos() - start));
    if (text.empty()) {
      return Status::ParseError("expected number at " + cur_.Location());
    }
    auto e = MakeExpr(ExprKind::kLiteral);
    if (!has_dot && !has_exp) {
      auto v = ParseXsInteger(text);
      if (!v) return Status::ParseError("integer literal overflow: " + text);
      e->literal = AtomicValue::Integer(*v);
    } else {
      auto v = ParseXsDouble(text);
      if (!v) return Status::ParseError("bad numeric literal: " + text);
      e->literal = AtomicValue::Double(*v);
    }
    return e;
  }

  Result<std::unique_ptr<Expr>> ParsePrimaryExpr() {
    size_t start = SpanStart();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParsePrimaryInner());
    Stamp(e.get(), start);
    return e;
  }

  Result<std::unique_ptr<Expr>> ParsePrimaryInner() {
    cur_.SkipWs();
    char c = cur_.Peek();
    if (c == '$') {
      XQDB_ASSIGN_OR_RETURN(std::string var, ParseDollarVar());
      auto e = MakeExpr(ExprKind::kVarRef);
      e->var = std::move(var);
      return e;
    }
    if (c == '"' || c == '\'') {
      XQDB_ASSIGN_OR_RETURN(std::string s, cur_.ParseStringLiteral());
      auto e = MakeExpr(ExprKind::kLiteral);
      e->literal = AtomicValue::String(std::move(s));
      return e;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(cur_.PeekAt(1))))) {
      return ParseNumberLiteral();
    }
    if (c == '.') {
      cur_.Bump();
      return MakeExpr(ExprKind::kContextItem);
    }
    if (c == '(') {
      cur_.Bump();
      cur_.SkipWs();
      if (cur_.Peek() == ')') {
        cur_.Bump();
        return MakeExpr(ExprKind::kEmptySequence);
      }
      XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExprSequence());
      if (!cur_.ConsumeToken(")")) {
        return Status::ParseError("expected ')' at " + cur_.Location());
      }
      return inner;
    }
    if (c == '<') {
      return ParseDirectConstructor();
    }
    if (IsNCNameStart(c)) {
      return ParseFunctionCall();
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at " + cur_.Location());
  }

  Result<std::unique_ptr<Expr>> ParseFunctionCall() {
    XQDB_ASSIGN_OR_RETURN(RawQName name, ParseQNameRaw());
    cur_.SkipWs();
    if (cur_.Peek() != '(') {
      return Status::ParseError("expected '(' after function name '" +
                                name.local + "' at " + cur_.Location());
    }
    cur_.Bump();

    std::string canonical;
    if (name.prefix.empty()) {
      canonical = "fn:" + name.local;
    } else {
      XQDB_ASSIGN_OR_RETURN(std::string uri, ResolveNs(name.prefix, false));
      auto module = CanonicalModule(uri);
      if (!module) {
        return Status::Unsupported("function namespace '" + uri + "'");
      }
      canonical = *module + ":" + name.local;
    }

    auto e = MakeExpr(ExprKind::kFunctionCall);
    e->fn_name = canonical;
    cur_.SkipWs();
    if (cur_.Peek() != ')') {
      do {
        XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExprSingle());
        e->children.push_back(std::move(arg));
      } while (cur_.ConsumeToken(","));
    }
    if (!cur_.ConsumeToken(")")) {
      return Status::ParseError("expected ')' in call to " + canonical);
    }

    // db2-fn:xmlcolumn('T.C') resolves to a dedicated node at parse time.
    if (canonical == "db2-fn:xmlcolumn") {
      if (e->children.size() != 1 ||
          e->children[0]->kind != ExprKind::kLiteral ||
          e->children[0]->literal.type() != AtomicType::kString) {
        return Status::ParseError(
            "db2-fn:xmlcolumn requires a string literal argument");
      }
      std::string arg = ToUpperAscii(e->children[0]->literal.string_value());
      size_t dot = arg.rfind('.');
      if (dot == std::string::npos) {
        return Status::ParseError(
            "db2-fn:xmlcolumn argument must be 'TABLE.COLUMN'");
      }
      auto col = MakeExpr(ExprKind::kXmlColumn);
      col->table_name = arg.substr(0, dot);
      col->column_name = arg.substr(dot + 1);
      return col;
    }
    // xs:/xdt: constructor functions take exactly one argument.
    if (canonical.rfind("xs:", 0) == 0 || canonical.rfind("xdt:", 0) == 0) {
      auto type = AtomicTypeByName(canonical);
      if (!type) return Status::Unsupported("type constructor " + canonical);
      if (e->children.size() != 1) {
        return Status::ParseError(canonical + " takes exactly one argument");
      }
      auto cast = MakeExpr(ExprKind::kCastAs);
      cast->cast_target = *type;
      cast->cast_optional = true;  // Constructor functions accept ().
      cast->children.push_back(std::move(e->children[0]));
      return cast;
    }
    return e;
  }

  // ----- Direct constructors --------------------------------------------

  Result<std::unique_ptr<Expr>> ParseDirectConstructor() {
    // cur_ points at '<'.
    cur_.Bump();
    if (!IsNCNameStart(cur_.Peek())) {
      return Status::ParseError("expected element name after '<' at " +
                                cur_.Location());
    }
    XQDB_ASSIGN_OR_RETURN(RawQName raw_name, ParseQNameRaw());

    // Collect attributes; xmlns declarations populate a namespace overlay
    // that scopes over this constructor (including nested expressions).
    ns_overlays_.emplace_back();
    struct RawAttr {
      RawQName name;
      std::vector<ConstructorContent> parts;
    };
    std::vector<RawAttr> attrs;
    for (;;) {
      cur_.SkipWs();
      if (cur_.AtEnd()) {
        ns_overlays_.pop_back();
        return Status::ParseError("unterminated start tag");
      }
      if (cur_.Peek() == '>' || cur_.LookingAt("/>")) break;
      if (!IsNCNameStart(cur_.Peek())) {
        ns_overlays_.pop_back();
        return Status::ParseError("expected attribute name at " +
                                  cur_.Location());
      }
      XQDB_ASSIGN_OR_RETURN(RawQName attr_name, ParseQNameRaw());
      cur_.SkipWs();
      if (cur_.Peek() != '=') {
        ns_overlays_.pop_back();
        return Status::ParseError("expected '=' after attribute name");
      }
      cur_.Bump();
      auto parts_result = ParseAttrValueParts();
      if (!parts_result.ok()) {
        ns_overlays_.pop_back();
        return parts_result.status();
      }
      std::vector<ConstructorContent> parts = std::move(*parts_result);
      if (attr_name.prefix.empty() && attr_name.local == "xmlns") {
        if (parts.size() != 1 || !parts[0].is_text) {
          ns_overlays_.pop_back();
          return Status::ParseError(
              "namespace declaration value must be a literal");
        }
        ns_overlays_.back()[""] = parts[0].text;
      } else if (attr_name.prefix == "xmlns") {
        if (parts.size() != 1 || !parts[0].is_text) {
          ns_overlays_.pop_back();
          return Status::ParseError(
              "namespace declaration value must be a literal");
        }
        ns_overlays_.back()[attr_name.local] = parts[0].text;
      } else {
        attrs.push_back(RawAttr{std::move(attr_name), std::move(parts)});
      }
    }

    auto finish = [&]() { ns_overlays_.pop_back(); };

    auto e = MakeExpr(ExprKind::kDirectElement);
    {
      auto uri = ResolveNs(raw_name.prefix, /*is_element_name=*/true);
      if (!uri.ok()) {
        finish();
        return uri.status();
      }
      e->elem_name = NamePool::Global()->Intern(*uri, raw_name.local);
      if (e->elem_name == kInvalidName) {
        finish();
        return NamePool::FullError();
      }
    }
    for (RawAttr& a : attrs) {
      auto uri = ResolveNs(a.name.prefix, /*is_element_name=*/false);
      if (!uri.ok()) {
        finish();
        return uri.status();
      }
      ConstructorAttr ca;
      ca.name = NamePool::Global()->Intern(*uri, a.name.local);
      if (ca.name == kInvalidName) {
        finish();
        return NamePool::FullError();
      }
      ca.value_parts = std::move(a.parts);
      e->ctor_attrs.push_back(std::move(ca));
    }

    if (cur_.LookingAt("/>")) {
      cur_.Bump();
      cur_.Bump();
      finish();
      return e;
    }
    cur_.Bump();  // '>'

    // Content until the matching end tag.
    std::string text_run;
    auto flush_text = [&](bool force_keep) {
      if (text_run.empty()) return;
      if (force_keep || !IsAllWhitespace(text_run)) {
        ConstructorContent part;
        part.is_text = true;
        part.text = std::move(text_run);
        e->ctor_content.push_back(std::move(part));
      }
      text_run.clear();
    };

    for (;;) {
      if (cur_.AtEnd()) {
        finish();
        return Status::ParseError("unterminated element constructor");
      }
      char c = cur_.Peek();
      if (c == '<') {
        if (cur_.LookingAt("</")) {
          flush_text(false);
          cur_.Bump();
          cur_.Bump();
          XQDB_ASSIGN_OR_RETURN(RawQName end_name, ParseQNameRaw());
          if (end_name.prefix != raw_name.prefix ||
              end_name.local != raw_name.local) {
            finish();
            return Status::ParseError("mismatched end tag </" +
                                      end_name.local + ">");
          }
          cur_.SkipWs();
          if (cur_.Peek() != '>') {
            finish();
            return Status::ParseError("malformed end tag");
          }
          cur_.Bump();
          finish();
          return e;
        }
        if (cur_.LookingAt("<!--")) {
          flush_text(false);
          size_t end = cur_.input().find("-->", cur_.pos() + 4);
          if (end == std::string_view::npos) {
            finish();
            return Status::ParseError("unterminated comment in constructor");
          }
          cur_.set_pos(end + 3);
          continue;
        }
        if (cur_.LookingAt("<![CDATA[")) {
          size_t end = cur_.input().find("]]>", cur_.pos() + 9);
          if (end == std::string_view::npos) {
            finish();
            return Status::ParseError("unterminated CDATA");
          }
          text_run.append(
              cur_.input().substr(cur_.pos() + 9, end - cur_.pos() - 9));
          cur_.set_pos(end + 3);
          flush_text(true);
          continue;
        }
        flush_text(false);
        auto child = ParseDirectConstructor();
        if (!child.ok()) {
          finish();
          return child.status();
        }
        ConstructorContent part;
        part.expr = std::move(*child);
        e->ctor_content.push_back(std::move(part));
        continue;
      }
      if (c == '{') {
        if (cur_.PeekAt(1) == '{') {
          text_run.push_back('{');
          cur_.Bump();
          cur_.Bump();
          continue;
        }
        flush_text(false);
        cur_.Bump();
        auto inner = ParseExprSequence();
        if (!inner.ok()) {
          finish();
          return inner.status();
        }
        if (!cur_.ConsumeToken("}")) {
          finish();
          return Status::ParseError("expected '}' in constructor at " +
                                    cur_.Location());
        }
        ConstructorContent part;
        part.expr = std::move(*inner);
        e->ctor_content.push_back(std::move(part));
        continue;
      }
      if (c == '}') {
        if (cur_.PeekAt(1) == '}') {
          text_run.push_back('}');
          cur_.Bump();
          cur_.Bump();
          continue;
        }
        finish();
        return Status::ParseError("unescaped '}' in constructor content");
      }
      if (c == '&') {
        if (cur_.LookingAt("&lt;")) {
          text_run += '<';
          cur_.set_pos(cur_.pos() + 4);
        } else if (cur_.LookingAt("&gt;")) {
          text_run += '>';
          cur_.set_pos(cur_.pos() + 4);
        } else if (cur_.LookingAt("&amp;")) {
          text_run += '&';
          cur_.set_pos(cur_.pos() + 5);
        } else if (cur_.LookingAt("&quot;")) {
          text_run += '"';
          cur_.set_pos(cur_.pos() + 6);
        } else if (cur_.LookingAt("&apos;")) {
          text_run += '\'';
          cur_.set_pos(cur_.pos() + 6);
        } else {
          finish();
          return Status::ParseError("unsupported entity in constructor");
        }
        continue;
      }
      text_run.push_back(c);
      cur_.Bump();
    }
  }

  Result<std::vector<ConstructorContent>> ParseAttrValueParts() {
    cur_.SkipWs();
    char quote = cur_.Peek();
    if (quote != '"' && quote != '\'') {
      return Status::ParseError("expected quoted attribute value at " +
                                cur_.Location());
    }
    cur_.Bump();
    std::vector<ConstructorContent> parts;
    std::string text_run;
    auto flush = [&]() {
      if (text_run.empty()) return;
      ConstructorContent part;
      part.is_text = true;
      part.text = std::move(text_run);
      parts.push_back(std::move(part));
      text_run.clear();
    };
    for (;;) {
      if (cur_.AtEnd()) {
        return Status::ParseError("unterminated attribute value");
      }
      char c = cur_.Peek();
      if (c == quote) {
        cur_.Bump();
        flush();
        return parts;
      }
      if (c == '{') {
        if (cur_.PeekAt(1) == '{') {
          text_run.push_back('{');
          cur_.Bump();
          cur_.Bump();
          continue;
        }
        flush();
        cur_.Bump();
        XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner,
                              ParseExprSequence());
        if (!cur_.ConsumeToken("}")) {
          return Status::ParseError("expected '}' in attribute value");
        }
        ConstructorContent part;
        part.expr = std::move(inner);
        parts.push_back(std::move(part));
        continue;
      }
      if (c == '&') {
        if (cur_.LookingAt("&quot;")) {
          text_run += '"';
          cur_.set_pos(cur_.pos() + 6);
          continue;
        }
        if (cur_.LookingAt("&apos;")) {
          text_run += '\'';
          cur_.set_pos(cur_.pos() + 6);
          continue;
        }
        if (cur_.LookingAt("&amp;")) {
          text_run += '&';
          cur_.set_pos(cur_.pos() + 5);
          continue;
        }
        if (cur_.LookingAt("&lt;")) {
          text_run += '<';
          cur_.set_pos(cur_.pos() + 4);
          continue;
        }
        if (cur_.LookingAt("&gt;")) {
          text_run += '>';
          cur_.set_pos(cur_.pos() + 4);
          continue;
        }
      }
      text_run.push_back(c);
      cur_.Bump();
    }
  }

  CharCursor cur_;
  StaticContext* sctx_;
  std::vector<std::map<std::string, std::string>> ns_overlays_;
};

}  // namespace

Result<ParsedQuery> ParseXQuery(std::string_view text) {
  ParsedQuery out;
  Parser parser(text, &out.static_context);
  XQDB_ASSIGN_OR_RETURN(out.body, parser.ParseQueryBody(/*parse_prolog=*/true));
  return out;
}

Result<std::unique_ptr<Expr>> ParseXQueryExpr(std::string_view text,
                                              StaticContext* sctx) {
  Parser parser(text, sctx);
  return parser.ParseQueryBody(/*parse_prolog=*/true);
}

}  // namespace xqdb
