#include "core/predicate_extract.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "analysis/diag.h"
#include "xdm/cast.h"

namespace xqdb {

namespace {

using Steps = std::vector<NormStep>;

bool StepsEqual(const Steps& a, const Steps& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].skip != b[i].skip || a[i].test != b[i].test) {
      return false;
    }
  }
  return true;
}

/// Maps the comparison-operand's literal/cast type to the comparison type
/// of a *general* comparison against untyped document data (§3.1): numeric
/// constants force a double comparison, strings a string comparison,
/// temporals a temporal comparison.
AtomicType ComparisonTypeFor(AtomicType constant_type) {
  switch (constant_type) {
    case AtomicType::kInteger:
    case AtomicType::kDouble:
      return AtomicType::kDouble;
    case AtomicType::kString:
    case AtomicType::kUntypedAtomic:
      return AtomicType::kString;
    case AtomicType::kDate:
      return AtomicType::kDate;
    case AtomicType::kDateTime:
      return AtomicType::kDateTime;
    case AtomicType::kBoolean:
      return AtomicType::kString;
  }
  return AtomicType::kString;
}

bool IsLowerBoundOp(CompareOp op) {
  return op == CompareOp::kGt || op == CompareOp::kGe;
}
bool IsUpperBoundOp(CompareOp op) {
  return op == CompareOp::kLt || op == CompareOp::kLe;
}

class Extractor {
 public:
  Extractor(std::string table, std::string column,
            const std::vector<std::string>& column_vars)
      : table_(std::move(table)), column_(std::move(column)) {
    for (const std::string& var : column_vars) {
      env_[var] = BoundVar{Steps{}, nullptr};
    }
  }

  ExtractionResult Run(const Expr& body) {
    AnalyzeFiltering(body);
    // The same structural predicate is often reachable through several
    // contexts (the for-clause source and the path body, say); keep one of
    // each so EXPLAIN stays readable.
    std::set<std::string> seen;
    std::vector<ExtractedPredicate> unique;
    for (auto& pred : out_.predicates) {
      if (seen.insert(pred.description).second) {
        unique.push_back(std::move(pred));
      }
    }
    out_.predicates = std::move(unique);
    return std::move(out_);
  }

 private:
  // ----- Path resolution -------------------------------------------------

  /// A "transparent" expression step preserves the navigated node's value:
  /// fn:data(.) / fn:data() or a cast of the context item (xs:double(.)).
  /// Casts force the comparison type.
  static bool IsTransparentExprStep(const Expr& e,
                                    std::optional<AtomicType>* forced_type) {
    if (e.kind == ExprKind::kCastAs && e.children.size() == 1 &&
        e.children[0]->kind == ExprKind::kContextItem) {
      *forced_type = e.cast_target;
      return true;
    }
    if (e.kind == ExprKind::kFunctionCall && e.fn_name == "fn:data" &&
        (e.children.empty() ||
         (e.children.size() == 1 &&
          e.children[0]->kind == ExprKind::kContextItem))) {
      return true;
    }
    return false;
  }

  struct ResolvedPath {
    Steps steps;
    bool singleton = false;  // provably ≤1 node per context (self/attr step)
    std::optional<AtomicType> forced_type;
  };

  /// Resolves a path-denoting expression to steps from the document root.
  /// `ctx`: context steps for relative resolution (predicates); nullptr at
  /// top level (then the path must start from a column var / xmlcolumn).
  /// When `filtering`, predicates on the way are extracted.
  std::optional<ResolvedPath> ResolveExpr(const Expr& e, const Steps* ctx,
                                          bool filtering) {
    if (e.kind == ExprKind::kContextItem) {
      if (ctx == nullptr) return std::nullopt;
      return ResolvedPath{*ctx, /*singleton=*/true, std::nullopt};
    }
    if (e.kind == ExprKind::kVarRef) {
      auto it = env_.find(e.var);
      if (it == env_.end()) return std::nullopt;
      if (filtering && it->second.def != nullptr &&
          resolving_.insert(e.var).second) {
        // A filtering use of the variable (`where exists($v)`, a for-clause
        // source) eliminates the empty sequence the binding preserved, so
        // predicates written inside the binding's path become
        // document-eliminating after all (Tip 7, Query 21): re-resolve the
        // definition in filtering mode to extract them.
        ResolveExpr(*it->second.def, nullptr, /*filtering=*/true);
        resolving_.erase(e.var);
      }
      return ResolvedPath{it->second.steps, false, std::nullopt};
    }
    if (e.kind == ExprKind::kXmlColumn) {
      if (e.table_name != table_ || e.column_name != column_) {
        return std::nullopt;
      }
      return ResolvedPath{Steps{}, false, std::nullopt};
    }
    if (e.kind != ExprKind::kPath) return std::nullopt;

    ResolvedPath out;
    bool pending_skip = false;
    size_t first = 0;
    if (e.absolute) return std::nullopt;  // Only column-rooted paths.

    // Resolve the source of the path.
    if (!e.steps.empty() && !e.steps[0].is_axis_step) {
      const Expr& src = *e.steps[0].expr;
      std::optional<ResolvedPath> base =
          ResolveExpr(src, ctx, /*filtering=*/false);
      if (!base.has_value()) return std::nullopt;
      out.steps = std::move(base->steps);
      if (!e.steps[0].predicates.empty() && filtering) {
        for (const auto& pred : e.steps[0].predicates) {
          AnalyzePredicate(*pred, out.steps);
        }
      }
      first = 1;
    } else if (ctx != nullptr) {
      out.steps = *ctx;
      out.singleton = true;  // starts at the context node
    } else {
      return std::nullopt;
    }

    int consuming_steps = 0;
    for (size_t i = first; i < e.steps.size(); ++i) {
      const PathStep& step = e.steps[i];
      if (!step.is_axis_step) {
        // Transparent value steps only; anything else aborts.
        std::optional<AtomicType> forced;
        if (!IsTransparentExprStep(*step.expr, &forced)) return std::nullopt;
        if (forced.has_value()) out.forced_type = forced;
        if (filtering) {
          for (const auto& pred : step.predicates) {
            // Context inside data()/cast step is the same node's value —
            // predicates on it compare a singleton.
            AnalyzePredicate(*pred, out.steps);
          }
        }
        continue;
      }
      if (!AppendNormStep(step, &pending_skip, &out.steps)) {
        return std::nullopt;
      }
      ++consuming_steps;
      if (filtering) {
        for (const auto& pred : step.predicates) {
          AnalyzePredicate(*pred, out.steps);
        }
      }
    }
    if (pending_skip) return std::nullopt;  // Path ended with bare '//'.
    // Singleton tracking: one attribute step from the context node is still
    // ≤1 node; anything longer is not.
    bool single_attr =
        consuming_steps == 1 && !out.steps.empty() &&
        out.steps.back().test.rank_mask == RankBit(NodeRank::kAttr) &&
        !out.steps.back().skip;
    out.singleton = out.singleton && (consuming_steps == 0 || single_attr);
    return out;
  }

  /// Infers the comparison type contributed by the outer (unresolved) side
  /// of a join: a trailing xs:T(.) cast step or a wrapping cast declares T;
  /// otherwise untyped-vs-untyped comparisons are string comparisons.
  static AtomicType OuterCastType(const Expr& e) {
    if (e.kind == ExprKind::kCastAs) return e.cast_target;
    if (e.kind == ExprKind::kPath && !e.steps.empty()) {
      const PathStep& last = e.steps.back();
      if (!last.is_axis_step && last.expr != nullptr &&
          last.expr->kind == ExprKind::kCastAs) {
        return last.expr->cast_target;
      }
    }
    return AtomicType::kUntypedAtomic;
  }

  // ----- Constants --------------------------------------------------------

  struct Constant {
    AtomicValue value;
    AtomicType declared_type;
  };

  std::optional<Constant> ConstantOf(const Expr& e) {
    if (e.kind == ExprKind::kLiteral) {
      return Constant{e.literal, e.literal.type()};
    }
    if (e.kind == ExprKind::kCastAs && e.children.size() == 1 &&
        e.children[0]->kind == ExprKind::kLiteral) {
      auto cast = CastTo(e.children[0]->literal, e.cast_target);
      if (!cast.ok()) return std::nullopt;
      return Constant{cast.value(), e.cast_target};
    }
    if (e.kind == ExprKind::kUnaryMinus && e.children.size() == 1 &&
        e.children[0]->kind == ExprKind::kLiteral) {
      const AtomicValue& v = e.children[0]->literal;
      if (v.type() == AtomicType::kInteger) {
        return Constant{AtomicValue::Integer(-v.integer_value()),
                        v.type()};
      }
      if (v.type() == AtomicType::kDouble) {
        return Constant{AtomicValue::Double(-v.double_value()), v.type()};
      }
    }
    return std::nullopt;
  }

  // ----- Predicate analysis ----------------------------------------------

  void EmitValuePredicate(const ResolvedPath& operand, CompareOp op,
                          const Constant& constant, bool value_comparison,
                          SourceSpan span,
                          std::vector<ExtractedPredicate>* sink) {
    ExtractedPredicate pred;
    pred.path = MakePattern({operand.steps});
    pred.path_text = PatternToString(pred.path);
    pred.span = span;
    pred.has_value = true;
    pred.op = op;
    pred.constant = constant.value;
    pred.comparison_type = operand.forced_type.has_value()
                               ? ComparisonTypeFor(*operand.forced_type)
                               : ComparisonTypeFor(constant.declared_type);
    pred.singleton_operand = operand.singleton || value_comparison;
    pred.description =
        pred.path_text + " " + std::string(CompareOpName(op)) + " " +
        constant.value.Lexical() + " (" +
        std::string(AtomicTypeName(pred.comparison_type)) + " comparison)";
    sink->push_back(std::move(pred));
  }

  void EmitStructuralPredicate(const Steps& steps, SourceSpan span,
                               std::vector<ExtractedPredicate>* sink) {
    if (steps.empty()) return;
    ExtractedPredicate pred;
    pred.path = MakePattern({steps});
    pred.path_text = PatternToString(pred.path);
    pred.span = span;
    pred.has_value = false;
    pred.description = "exists(" + pred.path_text + ") (structural)";
    sink->push_back(std::move(pred));
  }

  /// Analyzes a comparison; ctx may be null (where-clause against env vars).
  void AnalyzeComparison(const Expr& e, const Steps* ctx,
                         std::vector<ExtractedPredicate>* sink) {
    bool value_cmp = e.kind == ExprKind::kValueCompare;
    const Expr& lhs = *e.children[0];
    const Expr& rhs = *e.children[1];

    auto lpath = ResolveExpr(lhs, ctx, /*filtering=*/false);
    auto rpath = ResolveExpr(rhs, ctx, /*filtering=*/false);
    auto lconst = ConstantOf(lhs);
    auto rconst = ConstantOf(rhs);

    if (lpath.has_value() && rconst.has_value()) {
      EmitValuePredicate(*lpath, e.cmp_op, *rconst, value_cmp, e.span, sink);
      return;
    }
    if (rpath.has_value() && lconst.has_value()) {
      EmitValuePredicate(*rpath, FlipCompareOp(e.cmp_op), *lconst, value_cmp,
                         e.span, sink);
      return;
    }
    if (lpath.has_value() && rpath.has_value()) {
      out_.notes.push_back(
          DiagTag(DiagCode::kXQL005_XQuerySideJoin) +
          "join predicate between two XML paths (" +
          PatternToString(MakePattern({lpath->steps})) + " vs other side); "
          "no constant to probe with — index-nested-loop is the planner's "
          "best option (Tips 5/6)");
      return;
    }
    if (lpath.has_value() || rpath.has_value()) {
      // One side resolves over this column; the other references variables
      // we do not know (another table's column): an equality join
      // candidate for index-nested-loop execution.
      if (e.cmp_op == CompareOp::kEq) {
        const ResolvedPath& inner = lpath.has_value() ? *lpath : *rpath;
        const Expr& outer = lpath.has_value() ? rhs : lhs;
        JoinCandidate jc;
        jc.inner_path = MakePattern({inner.steps});
        jc.inner_path_text = PatternToString(jc.inner_path);
        jc.comparison_type =
            inner.forced_type.has_value()
                ? ComparisonTypeFor(*inner.forced_type)
                : ComparisonTypeFor(OuterCastType(outer));
        jc.outer_expr = &outer;
        jc.description = jc.inner_path_text + " = <outer expression> (" +
                         std::string(AtomicTypeName(jc.comparison_type)) +
                         " join)";
        out_.joins.push_back(std::move(jc));
      }
      out_.notes.push_back(
          "comparison against a non-constant expression (a join with "
          "another collection, or a computed value) has no constant to "
          "probe with — not index eligible as a value predicate" +
          std::string(e.cmp_op == CompareOp::kEq
                          ? "; recorded as an index-nested-loop join "
                            "candidate (Tips 5/6)"
                          : ""));
    }
  }

  /// Tries to merge two single-bound range predicates on the same singleton
  /// path into one "between" (§3.10), in place.
  void MergeBetween(std::vector<ExtractedPredicate>* sink) {
    for (size_t i = 0; i < sink->size(); ++i) {
      ExtractedPredicate& a = (*sink)[i];
      if (!a.has_value || a.has_second || !a.singleton_operand) continue;
      for (size_t j = i + 1; j < sink->size(); ++j) {
        ExtractedPredicate& b = (*sink)[j];
        if (!b.has_value || b.has_second || !b.singleton_operand) continue;
        if (a.comparison_type != b.comparison_type) continue;
        if (!StepsEqual(a.path.alternatives[0], b.path.alternatives[0])) {
          continue;
        }
        bool ab = IsLowerBoundOp(a.op) && IsUpperBoundOp(b.op);
        bool ba = IsUpperBoundOp(a.op) && IsLowerBoundOp(b.op);
        if (!ab && !ba) continue;
        a.has_second = true;
        a.op2 = b.op;
        a.constant2 = b.constant;
        a.description += " AND " + std::string(CompareOpName(b.op)) + " " +
                         b.constant.Lexical() + " [merged between]";
        sink->erase(sink->begin() + static_cast<ptrdiff_t>(j));
        break;
      }
    }
  }

  /// Analyzes one predicate expression `[...]` with context `ctx`.
  void AnalyzePredicate(const Expr& e, const Steps& ctx) {
    std::vector<ExtractedPredicate> sink;
    AnalyzePredicateInner(e, ctx, &sink);
    MergeBetween(&sink);
    for (auto& p : sink) out_.predicates.push_back(std::move(p));
  }

  void AnalyzePredicateInner(const Expr& e, const Steps& ctx,
                             std::vector<ExtractedPredicate>* sink) {
    switch (e.kind) {
      case ExprKind::kAnd:
        AnalyzePredicateInner(*e.children[0], ctx, sink);
        AnalyzePredicateInner(*e.children[1], ctx, sink);
        return;
      case ExprKind::kOr:
        out_.notes.push_back(
            "OR predicate skipped: xqdb probes indexes only for conjunctive "
            "predicates");
        return;
      case ExprKind::kGeneralCompare:
      case ExprKind::kValueCompare:
        AnalyzeComparison(e, &ctx, sink);
        return;
      case ExprKind::kFunctionCall:
        if (e.fn_name == "fn:exists" && e.children.size() == 1) {
          auto p = ResolveExpr(*e.children[0], &ctx, /*filtering=*/true);
          if (p.has_value()) {
            EmitStructuralPredicate(p->steps, e.children[0]->span, sink);
          }
          return;
        }
        return;
      case ExprKind::kPath:
      case ExprKind::kContextItem:
      case ExprKind::kVarRef: {
        auto p = ResolveExpr(e, &ctx, /*filtering=*/true);
        if (p.has_value()) EmitStructuralPredicate(p->steps, e.span, sink);
        return;
      }
      case ExprKind::kQuantified: {
        // some $v in rel-path satisfies pred: existential, filtering.
        auto domain = ResolveExpr(*e.children[0], &ctx, /*filtering=*/true);
        if (domain.has_value() && !e.quantifier_every) {
          env_[e.var] = BoundVar{domain->steps, nullptr};
          AnalyzePredicateInner(*e.children[1], domain->steps, sink);
          env_.erase(e.var);
        }
        return;
      }
      default:
        return;
    }
  }

  // ----- where clause -----------------------------------------------------

  void AnalyzeWhere(const Expr& e) {
    std::vector<ExtractedPredicate> sink;
    AnalyzeWhereInner(e, &sink);
    MergeBetween(&sink);
    for (auto& p : sink) out_.predicates.push_back(std::move(p));
  }

  void AnalyzeWhereInner(const Expr& e,
                         std::vector<ExtractedPredicate>* sink) {
    switch (e.kind) {
      case ExprKind::kAnd:
        AnalyzeWhereInner(*e.children[0], sink);
        AnalyzeWhereInner(*e.children[1], sink);
        return;
      case ExprKind::kGeneralCompare:
      case ExprKind::kValueCompare: {
        // Let-bound operands become filtering here: the where clause
        // eliminates the empty sequence (paper Q21).
        AnalyzeComparison(e, nullptr, sink);
        return;
      }
      case ExprKind::kFunctionCall:
        if (e.fn_name == "fn:exists" && e.children.size() == 1) {
          auto p =
              ResolveExpr(*e.children[0], nullptr, /*filtering=*/true);
          if (p.has_value()) {
            EmitStructuralPredicate(p->steps, e.children[0]->span, sink);
          }
        }
        return;
      case ExprKind::kPath:
      case ExprKind::kVarRef: {
        auto p = ResolveExpr(e, nullptr, /*filtering=*/true);
        if (p.has_value()) EmitStructuralPredicate(p->steps, e.span, sink);
        return;
      }
      case ExprKind::kQuantified: {
        auto domain =
            ResolveExpr(*e.children[0], nullptr, /*filtering=*/true);
        if (domain.has_value() && !e.quantifier_every) {
          env_[e.var] = BoundVar{domain->steps, nullptr};
          AnalyzePredicateInner(*e.children[1], domain->steps, sink);
          env_.erase(e.var);
        }
        return;
      }
      default:
        return;
    }
  }

  // ----- Top level ---------------------------------------------------------

  void AnalyzeFiltering(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kPath:
      case ExprKind::kXmlColumn: {
        auto p = ResolveExpr(e, nullptr, /*filtering=*/true);
        if (p.has_value() && !p->steps.empty()) {
          // The path itself filters: documents where it is empty produce
          // nothing. A varchar index can answer this structurally (§2.2).
          std::vector<ExtractedPredicate> sink;
          EmitStructuralPredicate(p->steps, e.span, &sink);
          for (auto& pred : sink) out_.predicates.push_back(std::move(pred));
        }
        return;
      }
      case ExprKind::kFlwor: {
        std::vector<std::string> bound_here;
        std::vector<std::string> unchecked_lets;
        for (const FlworClause& clause : e.clauses) {
          auto p = ResolveExpr(*clause.expr, nullptr,
                               clause.kind == FlworClause::Kind::kFor);
          if (!p.has_value()) continue;
          if (clause.kind == FlworClause::Kind::kFor) {
            env_[clause.var] = BoundVar{p->steps, clause.expr.get()};
            bound_here.push_back(clause.var);
            if (!p->steps.empty()) {
              std::vector<ExtractedPredicate> sink;
              EmitStructuralPredicate(p->steps, clause.expr->span, &sink);
              for (auto& pred : sink) {
                out_.predicates.push_back(std::move(pred));
              }
            }
          } else {
            // A let binding preserves empty sequences: its predicates do
            // not filter documents unless a where clause eliminates the
            // empty case (§3.4, Q18 vs Q21).
            env_[clause.var] = BoundVar{p->steps, clause.expr.get()};
            bound_here.push_back(clause.var);
            if (PathHasPredicates(*clause.expr) &&
                (e.where == nullptr || !ReferencesVar(*e.where, clause.var))) {
              unchecked_lets.push_back(clause.var);
            }
          }
        }
        for (const std::string& var : unchecked_lets) {
          out_.notes.push_back(
              DiagTag(DiagCode::kXQL104_NotDocumentEliminating) + "let $" +
              var +
              " binds a predicated path but let preserves empty "
              "sequences — predicate not index eligible unless checked "
              "in a where clause (Tip 7, §3.4)");
        }
        if (e.where != nullptr) AnalyzeWhere(*e.where);
        AnalyzeReturn(*e.children[0]);
        for (const std::string& var : bound_here) env_.erase(var);
        return;
      }
      case ExprKind::kSequence:
        for (const auto& child : e.children) AnalyzeFiltering(*child);
        return;
      case ExprKind::kGeneralCompare:
      case ExprKind::kValueCompare:
      case ExprKind::kQuantified:
        out_.notes.push_back(
            DiagTag(DiagCode::kXQL003_BooleanExistsBody) +
            "query result is a boolean value — a boolean is one item, so "
            "XMLEXISTS over it never filters (always true); wrap the "
            "predicate in a path or FLWOR instead (Tip 3, Query 9)");
        return;
      default:
        return;
    }
  }

  void AnalyzeReturn(const Expr& e) {
    if (AnyExpr(e, [](const Expr& x) {
          return x.kind == ExprKind::kDirectElement;
        })) {
      if (PathHasPredicates(e)) {
        out_.notes.push_back(
            DiagTag(DiagCode::kXQL104_NotDocumentEliminating) +
            "predicates inside element constructors in the return clause "
            "have outer-join semantics (an empty result still constructs an "
            "element) — not index eligible (Tip 7, Query 19)");
      }
      return;
    }
    if (e.kind == ExprKind::kPath) {
      // Bind-out iterates the return sequence: empty results vanish, so
      // predicates here do filter (Query 22).
      auto p = ResolveExpr(e, nullptr, /*filtering=*/true);
      (void)p;
      return;
    }
    if (e.kind == ExprKind::kFlwor || e.kind == ExprKind::kSequence) {
      AnalyzeFiltering(e);
    }
  }

  /// True when a path with a predicated step occurs in `e`.
  static bool PathHasPredicates(const Expr& e) {
    return AnyExpr(e, [](const Expr& x) {
      return std::any_of(x.steps.begin(), x.steps.end(),
                         [](const PathStep& step) {
                           return !step.predicates.empty();
                         });
    });
  }

  /// One in-scope variable: the steps it denotes plus (for FLWOR-bound
  /// vars) the defining expression, kept so a later *filtering* use can
  /// re-resolve the definition and extract its predicates (Tip 7).
  struct BoundVar {
    Steps steps;
    const Expr* def = nullptr;
  };

  std::string table_;
  std::string column_;
  std::map<std::string, BoundVar> env_;
  std::set<std::string> resolving_;  // re-resolution recursion guard
  ExtractionResult out_;
};

}  // namespace

ExtractionResult ExtractPredicates(
    const Expr& body, const std::string& table, const std::string& column,
    const std::vector<std::string>& column_vars) {
  Extractor extractor(table, column, column_vars);
  return extractor.Run(body);
}

}  // namespace xqdb
