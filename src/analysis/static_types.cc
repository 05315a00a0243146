#include "analysis/static_types.h"

#include <algorithm>
#include <map>
#include <utility>

#include "index/path_summary.h"
#include "storage/catalog.h"
#include "xdm/cast.h"
#include "xpath/pattern.h"

namespace xqdb {

std::string StaticType::CardinalityName() const {
  if (card_max == 0) return "empty-sequence()";
  if (card_min == 1 && card_max == 1) return "exactly-one";
  if (card_min == 0 && card_max == 1) return "zero-or-one";
  if (card_max > 0 && card_min == card_max) {
    return "exactly-" + std::to_string(card_max);
  }
  if (card_min >= 1) return "one-or-more";
  return "zero-or-more";
}

namespace {

constexpr long long kUnbounded = -1;

long long AddCard(long long a, long long b) {
  if (a < 0 || b < 0) return kUnbounded;
  if (a > (1LL << 40) || b > (1LL << 40)) return kUnbounded;
  return a + b;
}

long long MulCard(long long a, long long b) {
  if (a == 0 || b == 0) return 0;
  if (a < 0 || b < 0) return kUnbounded;
  if (a > (1LL << 20) || b > (1LL << 20)) return kUnbounded;
  return a * b;
}

/// Where a path expression is rooted, in DataGuide terms: the collection
/// plus the converted linear-pattern prefix of the steps taken so far.
struct PathOrigin {
  bool valid = false;
  std::string table;
  std::string column;
  std::vector<NormStep> steps;
  bool pending_skip = false;  // trailing descendant-or-self::node()
};

struct AbsType {
  StaticType type;
  PathOrigin origin;
};

StaticType UnknownType() { return StaticType{}; }  // 0..∞, can_raise

StaticType EmptyType(bool can_raise) {
  StaticType t;
  t.card_min = 0;
  t.card_max = 0;
  t.const_truth = false;
  t.can_raise = can_raise;
  return t;
}

StaticType BooleanType(std::optional<bool> truth, bool can_raise) {
  StaticType t;
  t.card_min = 1;
  t.card_max = 1;
  t.const_truth = truth;
  t.can_raise = can_raise;
  t.boolean_item = true;
  return t;
}

/// Taking the effective boolean value of a value of this type is known not
/// to raise FORG0006: statically-known truth, the empty sequence, node
/// sequences (EBV = non-empty), or a single boolean item.
bool EbvSafe(const StaticType& t) {
  if (t.const_truth.has_value()) return true;
  if (t.IsEmpty()) return true;
  if (t.always_nodes) return true;
  return t.boolean_item && t.card_max >= 0 && t.card_max <= 1;
}

std::optional<bool> EbvOf(const StaticType& t) {
  if (t.const_truth.has_value()) return t.const_truth;
  if (t.IsEmpty()) return false;
  if (t.always_nodes && t.NonEmpty()) return true;
  return std::nullopt;
}

/// EBV of one atomic literal, when the type supports EBV (dates do not).
std::optional<bool> LiteralEbv(const AtomicValue& v) {
  switch (v.type()) {
    case AtomicType::kBoolean:
      return v.boolean_value();
    case AtomicType::kString:
    case AtomicType::kUntypedAtomic:
      return !v.string_value().empty();
    case AtomicType::kInteger:
      return v.integer_value() != 0;
    case AtomicType::kDouble:
      return v.double_value() != 0 && v.double_value() == v.double_value();
    case AtomicType::kDate:
    case AtomicType::kDateTime:
      return std::nullopt;  // EBV of a temporal raises FORG0006
  }
  return std::nullopt;
}

/// Renders converted linear steps the way diagnostics (and
/// PathSummary::NearestLivePath) spell paths: "/a//b/@c".
std::string RenderSteps(const std::vector<NormStep>& steps) {
  std::string out;
  for (const NormStep& s : steps) {
    out += s.skip ? "//" : "/";
    const StepTest& t = s.test;
    const std::string local =
        t.name.local_any()
            ? "*"
            : std::string(NamePool::Global()->LocalText(t.name.local));
    if (t.rank_mask == RankBit(NodeRank::kText)) {
      out += "text()";
    } else if (t.rank_mask == RankBit(NodeRank::kComment)) {
      out += "comment()";
    } else if (t.rank_mask == RankBit(NodeRank::kPi)) {
      out += "processing-instruction(" +
             (t.name.local_any() ? std::string() : local) + ")";
    } else if (t.rank_mask == RankBit(NodeRank::kAttr)) {
      out += "@" + local;
    } else if (t.rank_mask == RankBit(NodeRank::kElem)) {
      out += local;
    } else {
      out += "node()";
    }
  }
  return out;
}

/// The abstract interpreter. One instance per query body; facts and
/// witnesses accumulate into `out_`.
class Inferencer {
 public:
  Inferencer(const Catalog* catalog, StaticQueryFacts* out)
      : catalog_(catalog), out_(out) {}

  void BindColumnVar(const ColumnBinding& b) {
    AbsType v;
    v.type.card_min = 0;
    v.type.card_max = kUnbounded;
    v.type.always_nodes = true;
    v.type.can_raise = false;
    v.origin.valid = HasColumn(b.table, b.column);
    v.origin.table = b.table;
    v.origin.column = b.column;
    vars_[b.var] = v;
  }

  AbsType Infer(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return InferLiteral(e);
      case ExprKind::kEmptySequence: {
        AbsType out;
        out.type = EmptyType(/*can_raise=*/false);
        return out;
      }
      case ExprKind::kSequence:
        return InferSequence(e);
      case ExprKind::kVarRef:
        return InferVarRef(e);
      case ExprKind::kContextItem:
        return InferContextItem();
      case ExprKind::kPath:
        return InferPath(e);
      case ExprKind::kFlwor:
        return InferFlwor(e);
      case ExprKind::kQuantified:
        return InferQuantified(e);
      case ExprKind::kIf:
        return InferIf(e);
      case ExprKind::kOr:
      case ExprKind::kAnd:
        return InferAndOr(e);
      case ExprKind::kGeneralCompare:
      case ExprKind::kValueCompare:
        return InferCompare(e);
      case ExprKind::kNodeIs:
        return InferNodeIs(e);
      case ExprKind::kUnion:
      case ExprKind::kIntersect:
      case ExprKind::kExcept:
        return InferSetOp(e);
      case ExprKind::kRange:
        return InferRange(e);
      case ExprKind::kArith:
        return InferArith(e);
      case ExprKind::kUnaryMinus:
        return InferUnaryMinus(e);
      case ExprKind::kFunctionCall:
        return InferFunctionCall(e);
      case ExprKind::kCastAs:
        return InferCast(e);
      case ExprKind::kDirectElement:
        return InferConstructor(e);
      case ExprKind::kXmlColumn:
        return InferXmlColumn(e);
    }
    return AbsType{};
  }

 private:
  bool HasColumn(const std::string& table, const std::string& column) const {
    return SummaryFor(table, column) != nullptr;
  }

  const PathSummary* SummaryFor(const std::string& table,
                                const std::string& column) const {
    if (catalog_ == nullptr) return nullptr;
    const Catalog* c = catalog_;
    auto t = c->GetTable(table);
    if (!t.ok()) return nullptr;
    return t.value()->path_summary(column);
  }

  void AddFact(StaticFact fact) { out_->facts.push_back(std::move(fact)); }

  AbsType InferLiteral(const Expr& e) {
    AbsType out;
    out.type.card_min = 1;
    out.type.card_max = 1;
    out.type.can_raise = false;
    out.type.boolean_item = e.literal.type() == AtomicType::kBoolean;
    out.type.const_truth = LiteralEbv(e.literal);
    return out;
  }

  AbsType InferSequence(const Expr& e) {
    AbsType out;
    out.type.card_min = 0;
    out.type.card_max = 0;
    out.type.can_raise = false;
    out.type.always_nodes = !e.children.empty();
    for (const auto& child : e.children) {
      AbsType c = Infer(*child);
      out.type.card_min = AddCard(out.type.card_min, c.type.card_min);
      out.type.card_max = AddCard(out.type.card_max, c.type.card_max);
      out.type.can_raise = out.type.can_raise || c.type.can_raise;
      out.type.always_nodes = out.type.always_nodes && c.type.always_nodes;
    }
    if (out.type.IsEmpty()) out.type.const_truth = false;
    return out;
  }

  AbsType InferVarRef(const Expr& e) {
    auto it = vars_.find(e.var);
    if (it == vars_.end()) {
      AbsType out;
      out.type.can_raise = false;  // the reference itself is a lookup
      return out;
    }
    AbsType out = it->second;
    // Any error the binding expression could raise surfaced at the binding
    // clause; referencing the bound value cannot raise.
    out.type.can_raise = false;
    return out;
  }

  AbsType InferContextItem() {
    if (context_.has_value()) {
      AbsType out = *context_;
      out.type.can_raise = false;
      return out;
    }
    AbsType out;
    out.type.card_min = 1;
    out.type.card_max = 1;
    out.type.can_raise = true;  // XPDY0002: context item may be absent
    return out;
  }

  AbsType InferXmlColumn(const Expr& e) {
    AbsType out;
    out.type.card_min = 0;
    out.type.card_max = kUnbounded;
    out.type.always_nodes = true;
    out.origin.valid = HasColumn(e.table_name, e.column_name);
    out.origin.table = e.table_name;
    out.origin.column = e.column_name;
    // Resolving an unknown table/column raises; a known one cannot.
    out.type.can_raise = catalog_ != nullptr && !out.origin.valid;
    if (catalog_ == nullptr) out.type.can_raise = false;
    return out;
  }

  /// Infers a step predicate with the focus set to "some node". Returns
  /// whether evaluating the predicate could raise. The predicate's truth is
  /// never used for emptiness: a numeric predicate is positional, so its
  /// EBV-style const_truth would be the wrong semantics.
  bool PredicateCanRaise(const Expr& pred) {
    std::optional<AbsType> saved = context_;
    AbsType node_ctx;
    node_ctx.type.card_min = 1;
    node_ctx.type.card_max = 1;
    node_ctx.type.always_nodes = true;
    node_ctx.type.can_raise = false;
    context_ = node_ctx;
    AbsType p = Infer(pred);
    context_ = saved;
    if (p.type.can_raise) return true;
    // Single numeric item = positional predicate, always safe; anything
    // else takes the EBV.
    if (EbvSafe(p.type)) return false;
    return !(p.type.card_min == 1 && p.type.card_max == 1);
  }

  AbsType InferPath(const Expr& e) {
    AbsType out;

    // Resolve the path's source.
    AbsType src;
    size_t first = 0;
    const Expr* source_expr = nullptr;
    if (!e.steps.empty() && !e.steps[0].is_axis_step &&
        e.steps[0].expr != nullptr) {
      source_expr = e.steps[0].expr.get();
      first = 1;
    }
    if (e.absolute || e.absolute_slashslash) {
      src.type = UnknownType();  // rooted at an unknown context document
      src.type.always_nodes = true;
    } else if (source_expr != nullptr) {
      src = Infer(*source_expr);
      for (const auto& pred : e.steps[0].predicates) {
        if (PredicateCanRaise(*pred)) src.type.can_raise = true;
      }
    } else if (context_.has_value()) {
      src = *context_;
      src.type.can_raise = false;
    } else {
      src.type = UnknownType();
    }

    // A provably empty source makes the whole path empty — pure algebra,
    // no summary consulted, so no witness is needed.
    if (src.type.IsEmpty()) {
      out.type = EmptyType(src.type.can_raise);
      return out;
    }

    PathOrigin origin = src.origin;
    bool convert_ok = origin.valid;
    bool pending_skip = origin.pending_skip;
    bool steps_safe = src.type.always_nodes && !src.type.can_raise;
    bool last_is_axis = !e.steps.empty() && e.steps.back().is_axis_step;

    for (size_t i = first; i < e.steps.size(); ++i) {
      const PathStep& step = e.steps[i];
      for (const auto& pred : step.predicates) {
        if (PredicateCanRaise(*pred)) steps_safe = false;
      }
      if (!step.is_axis_step) {
        // fn:data(.) / xs:T(.) value steps and other computed steps end the
        // structural prefix; a cast step can raise.
        convert_ok = false;
        steps_safe = false;
        continue;
      }
      if (convert_ok &&
          !AppendNormStep(step, &pending_skip, &origin.steps)) {
        convert_ok = false;
      }
    }

    out.type.card_min = 0;
    out.type.card_max = kUnbounded;
    out.type.always_nodes = last_is_axis || (e.steps.empty() && first == 0);
    out.type.can_raise = !steps_safe;

    // DataGuide as type oracle: if no live stored path word matches the
    // converted prefix, nothing extends it either (every ancestor element
    // node is itself a stored occurrence of its prefix), so the path's
    // static type is empty-sequence().
    if (convert_ok && !origin.steps.empty()) {
      const PathSummary* summary = SummaryFor(origin.table, origin.column);
      if (summary != nullptr) {
        Pattern pat = MakePattern({origin.steps});
        auto nfa = PatternNfa::Compile(pat);
        if (nfa.ok() && !summary->AnyPathMatches(*nfa, nullptr)) {
          std::string path_text = RenderSteps(origin.steps);
          out.type = EmptyType(!steps_safe);
          StaticEmptyWitness w;
          w.table = origin.table;
          w.column = origin.column;
          w.path_text = path_text;
          w.nfa = std::make_shared<PatternNfa>(std::move(nfa).value());
          out_->witnesses.push_back(w);

          StaticFact f;
          f.kind = StaticFact::Kind::kEmptyPath;
          f.span = e.span;
          f.table = origin.table;
          f.column = origin.column;
          f.path_text = path_text;
          f.collection_populated = summary->path_count() > 0;
          f.detail = "path " + path_text + " matches no stored path in " +
                     origin.table + "." + origin.column +
                     " — statically empty-sequence()";
          if (f.collection_populated) {
            f.suggestion = summary->NearestLivePath(path_text);
          }
          AddFact(std::move(f));
          return out;
        }
      }
    }

    out.origin = std::move(origin);
    out.origin.valid = convert_ok;
    out.origin.pending_skip = pending_skip;
    return out;
  }

  AbsType InferFlwor(const Expr& e) {
    std::vector<std::pair<std::string, std::optional<AbsType>>> saved;
    auto bind = [&](const std::string& var, AbsType v) {
      auto it = vars_.find(var);
      saved.emplace_back(var, it == vars_.end()
                                  ? std::nullopt
                                  : std::optional<AbsType>(it->second));
      vars_[var] = std::move(v);
    };

    bool dead = false;
    bool raise = false;  // accumulated only while the tuple stream lives
    long long tuples_min = 1;
    long long tuples_max = 1;
    for (const FlworClause& clause : e.clauses) {
      AbsType v = Infer(*clause.expr);
      if (!dead) raise = raise || v.type.can_raise;
      if (clause.kind == FlworClause::Kind::kFor) {
        tuples_min = MulCard(tuples_min, v.type.card_min);
        tuples_max = MulCard(tuples_max, v.type.card_max);
        if (!dead && v.type.IsEmpty()) {
          dead = true;
          StaticFact f;
          f.kind = StaticFact::Kind::kDeadBranch;
          f.span = clause.expr->span.IsValid() ? clause.expr->span : e.span;
          f.detail = "for $" + clause.var +
                     " iterates a statically empty sequence — the return "
                     "clause never runs";
          AddFact(std::move(f));
        }
        AbsType iter = v;
        iter.type.card_min = 1;
        iter.type.card_max = 1;
        iter.type.const_truth = std::nullopt;
        iter.type.can_raise = false;
        bind(clause.var, std::move(iter));
      } else {
        AbsType let = v;
        let.type.can_raise = false;
        bind(clause.var, std::move(let));
      }
    }

    std::optional<bool> where_truth;
    if (e.where != nullptr) {
      AbsType w = Infer(*e.where);
      if (!dead) raise = raise || w.type.can_raise || !EbvSafe(w.type);
      where_truth = EbvOf(w.type);
      if (!dead && where_truth == std::optional<bool>(false)) {
        dead = true;
        StaticFact f;
        f.kind = StaticFact::Kind::kDeadBranch;
        f.span = e.where->span.IsValid() ? e.where->span : e.span;
        f.detail =
            "where clause is statically false — the return clause never "
            "runs";
        AddFact(std::move(f));
      }
    }
    for (const OrderSpec& spec : e.order_by) {
      AbsType k = Infer(*spec.key);
      if (!dead) raise = true;  // sort-key comparison can raise XPTY0004
      (void)k;
    }

    AbsType ret = Infer(*e.children[0]);

    AbsType out;
    if (dead) {
      out.type = EmptyType(raise);
    } else {
      long long min_tuples =
          (e.where != nullptr && where_truth != std::optional<bool>(true))
              ? 0
              : tuples_min;
      out.type.card_min = MulCard(min_tuples, ret.type.card_min);
      out.type.card_max = MulCard(tuples_max, ret.type.card_max);
      out.type.can_raise = raise || ret.type.can_raise;
      out.type.always_nodes = ret.type.always_nodes;
      if (out.type.IsEmpty()) out.type.const_truth = false;
    }

    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      if (it->second.has_value()) {
        vars_[it->first] = std::move(*it->second);
      } else {
        vars_.erase(it->first);
      }
    }
    return out;
  }

  AbsType InferQuantified(const Expr& e) {
    AbsType dom = Infer(*e.children[0]);
    std::optional<AbsType> saved;
    auto it = vars_.find(e.var);
    if (it != vars_.end()) saved = it->second;
    AbsType item = dom;
    item.type.card_min = 1;
    item.type.card_max = 1;
    item.type.const_truth = std::nullopt;
    item.type.can_raise = false;
    vars_[e.var] = std::move(item);
    AbsType sat = Infer(*e.children[1]);
    if (saved.has_value()) {
      vars_[e.var] = std::move(*saved);
    } else {
      vars_.erase(e.var);
    }

    AbsType out;
    if (dom.type.IsEmpty()) {
      // some over () is false; every over () is (vacuously) true.
      out.type = BooleanType(e.quantifier_every, dom.type.can_raise);
      return out;
    }
    bool sat_safe = !sat.type.can_raise && EbvSafe(sat.type);
    bool raise = dom.type.can_raise || !sat_safe;
    std::optional<bool> truth;
    if (sat_safe && !dom.type.can_raise && sat.type.const_truth.has_value()) {
      if (e.quantifier_every) {
        if (*sat.type.const_truth) {
          truth = true;  // vacuous or uniformly true
        } else if (dom.type.NonEmpty()) {
          truth = false;
        }
      } else {
        if (!*sat.type.const_truth) {
          truth = false;  // no witness can ever satisfy
        } else if (dom.type.NonEmpty()) {
          truth = true;
        }
      }
    }
    out.type = BooleanType(truth, raise);
    return out;
  }

  AbsType InferIf(const Expr& e) {
    AbsType cond = Infer(*e.children[0]);
    AbsType then_t = Infer(*e.children[1]);
    AbsType else_t = Infer(*e.children[2]);
    bool cond_raise = cond.type.can_raise || !EbvSafe(cond.type);
    std::optional<bool> truth = EbvOf(cond.type);

    AbsType out;
    if (truth.has_value()) {
      const AbsType& taken = *truth ? then_t : else_t;
      const Expr& dead = *truth ? *e.children[2] : *e.children[1];
      StaticFact f;
      f.kind = StaticFact::Kind::kDeadBranch;
      f.span = dead.span.IsValid() ? dead.span : e.span;
      f.detail = *truth
                     ? "else branch is statically unreachable — the "
                       "condition is always true"
                     : "then branch is statically unreachable — the "
                       "condition is always false";
      AddFact(std::move(f));
      out = taken;
      out.type.can_raise = out.type.can_raise || cond_raise;
      return out;
    }
    out.type.card_min = std::min(then_t.type.card_min, else_t.type.card_min);
    out.type.card_max =
        (then_t.type.card_max < 0 || else_t.type.card_max < 0)
            ? kUnbounded
            : std::max(then_t.type.card_max, else_t.type.card_max);
    out.type.can_raise =
        cond_raise || then_t.type.can_raise || else_t.type.can_raise;
    out.type.always_nodes =
        then_t.type.always_nodes && else_t.type.always_nodes;
    out.type.boolean_item =
        then_t.type.boolean_item && else_t.type.boolean_item;
    if (out.type.IsEmpty()) out.type.const_truth = false;
    return out;
  }

  AbsType InferAndOr(const Expr& e) {
    AbsType l = Infer(*e.children[0]);
    AbsType r = Infer(*e.children[1]);
    bool is_and = e.kind == ExprKind::kAnd;
    std::optional<bool> lt = EbvOf(l.type);
    std::optional<bool> rt = EbvOf(r.type);
    bool l_safe = !l.type.can_raise && EbvSafe(l.type);
    bool r_safe = !r.type.can_raise && EbvSafe(r.type);

    std::optional<bool> truth;
    bool raise = !l_safe || !r_safe;
    // Short-circuit order matters: the left operand always evaluates.
    if (is_and) {
      if (l_safe && lt == std::optional<bool>(false)) {
        truth = false;
        raise = false;
      } else if (l_safe && r_safe && lt.has_value() && rt.has_value()) {
        truth = *lt && *rt;
        raise = false;
      } else if (l_safe && r_safe && rt == std::optional<bool>(false)) {
        truth = false;
        raise = false;
      }
    } else {
      if (l_safe && lt == std::optional<bool>(true)) {
        truth = true;
        raise = false;
      } else if (l_safe && r_safe && lt.has_value() && rt.has_value()) {
        truth = *lt || *rt;
        raise = false;
      } else if (l_safe && r_safe && rt == std::optional<bool>(true)) {
        truth = true;
        raise = false;
      }
    }
    AbsType out;
    out.type = BooleanType(truth, raise);
    return out;
  }

  AbsType InferCompare(const Expr& e) {
    AbsType l = Infer(*e.children[0]);
    AbsType r = Infer(*e.children[1]);
    bool operand_raise = l.type.can_raise || r.type.can_raise;
    AbsType out;
    if (l.type.IsEmpty() || r.type.IsEmpty()) {
      // Both operands still evaluate; the comparison itself contributes no
      // pairs, so a general comparison is false and a value comparison is
      // the empty sequence (EBV false either way).
      StaticFact f;
      f.kind = StaticFact::Kind::kAlwaysFalseCompare;
      f.span = e.span;
      f.detail =
          std::string(l.type.IsEmpty() ? "left" : "right") +
          " operand is statically empty — the comparison is always " +
          (e.kind == ExprKind::kGeneralCompare ? "false"
                                               : "the empty sequence");
      AddFact(std::move(f));
      if (e.kind == ExprKind::kGeneralCompare) {
        out.type = BooleanType(false, operand_raise);
      } else {
        out.type = EmptyType(operand_raise);
      }
      return out;
    }
    if (e.kind == ExprKind::kGeneralCompare) {
      // Comparing untyped node data casts per pair (FORG0001 risk), so the
      // result is one boolean but the evaluation may raise.
      out.type = BooleanType(std::nullopt, true);
    } else {
      out.type.card_min = 0;
      out.type.card_max = 1;
      out.type.boolean_item = true;
      out.type.can_raise = true;
    }
    return out;
  }

  AbsType InferNodeIs(const Expr& e) {
    AbsType l = Infer(*e.children[0]);
    AbsType r = Infer(*e.children[1]);
    AbsType out;
    out.type.card_min = 0;
    out.type.card_max = 1;
    out.type.boolean_item = true;
    out.type.can_raise = true;
    if (l.type.IsEmpty() && r.type.IsEmpty()) {
      out.type = EmptyType(l.type.can_raise || r.type.can_raise);
    }
    return out;
  }

  AbsType InferSetOp(const Expr& e) {
    AbsType l = Infer(*e.children[0]);
    AbsType r = Infer(*e.children[1]);
    bool nodes = l.type.always_nodes && r.type.always_nodes;
    bool raise = l.type.can_raise || r.type.can_raise || !nodes;
    AbsType out;
    out.type.always_nodes = true;
    out.type.can_raise = raise;
    switch (e.kind) {
      case ExprKind::kUnion:
        out.type.card_min = std::max(l.type.card_min, r.type.card_min);
        out.type.card_max = AddCard(l.type.card_max, r.type.card_max);
        break;
      case ExprKind::kIntersect:
        out.type.card_min = 0;
        out.type.card_max =
            (l.type.IsEmpty() || r.type.IsEmpty()) ? 0 : l.type.card_max;
        break;
      default:  // kExcept
        out.type.card_min = 0;
        out.type.card_max = l.type.card_max;
        break;
    }
    if (out.type.IsEmpty()) out.type.const_truth = false;
    return out;
  }

  AbsType InferRange(const Expr& e) {
    AbsType l = Infer(*e.children[0]);
    AbsType r = Infer(*e.children[1]);
    AbsType out;
    const Expr& a = *e.children[0];
    const Expr& b = *e.children[1];
    if (a.kind == ExprKind::kLiteral && b.kind == ExprKind::kLiteral &&
        a.literal.type() == AtomicType::kInteger &&
        b.literal.type() == AtomicType::kInteger) {
      long long n = b.literal.integer_value() - a.literal.integer_value() + 1;
      if (n < 0) n = 0;
      out.type.card_min = n;
      out.type.card_max = n;
      out.type.can_raise = false;
      if (n == 0) out.type.const_truth = false;
      return out;
    }
    if (l.type.IsEmpty() || r.type.IsEmpty()) {
      out.type = EmptyType(l.type.can_raise || r.type.can_raise);
      return out;
    }
    out.type.card_min = 0;
    out.type.card_max = kUnbounded;
    out.type.can_raise = true;
    return out;
  }

  AbsType InferArith(const Expr& e) {
    AbsType l = Infer(*e.children[0]);
    AbsType r = Infer(*e.children[1]);
    AbsType out;
    if (l.type.IsEmpty() || r.type.IsEmpty()) {
      out.type = EmptyType(l.type.can_raise || r.type.can_raise);
      return out;
    }
    out.type.card_min = 0;
    out.type.card_max = 1;
    bool literal_safe =
        e.children[0]->kind == ExprKind::kLiteral &&
        e.children[1]->kind == ExprKind::kLiteral &&
        e.children[0]->literal.is_numeric() &&
        e.children[1]->literal.is_numeric() &&
        (e.arith_op == ArithOp::kAdd || e.arith_op == ArithOp::kSub ||
         e.arith_op == ArithOp::kMul);
    if (literal_safe) {
      out.type.card_min = 1;
      out.type.can_raise = false;
    } else {
      out.type.can_raise = true;
    }
    return out;
  }

  AbsType InferUnaryMinus(const Expr& e) {
    AbsType a = Infer(*e.children[0]);
    AbsType out;
    if (a.type.IsEmpty()) {
      out.type = EmptyType(a.type.can_raise);
      return out;
    }
    out.type.card_min = 0;
    out.type.card_max = 1;
    if (e.children[0]->kind == ExprKind::kLiteral &&
        e.children[0]->literal.is_numeric()) {
      out.type.card_min = 1;
      out.type.can_raise = false;
    } else {
      out.type.can_raise = true;
    }
    return out;
  }

  AbsType InferFunctionCall(const Expr& e) {
    std::vector<AbsType> args;
    args.reserve(e.children.size());
    for (const auto& child : e.children) args.push_back(Infer(*child));
    const AbsType* arg0 = args.empty() ? nullptr : &args[0];
    bool arg_raise = false;
    for (const AbsType& a : args) arg_raise = arg_raise || a.type.can_raise;

    AbsType out;
    const std::string& fn = e.fn_name;
    if (fn == "fn:count" && arg0 != nullptr) {
      out.type.card_min = 1;
      out.type.card_max = 1;
      out.type.can_raise = arg_raise;
      if (arg0->type.card_max >= 0 &&
          arg0->type.card_min == arg0->type.card_max) {
        out.type.const_truth = arg0->type.card_max != 0;
      }
      return out;
    }
    if ((fn == "fn:exists" || fn == "fn:empty") && arg0 != nullptr) {
      std::optional<bool> truth;
      if (arg0->type.IsEmpty()) truth = fn == "fn:empty";
      if (arg0->type.NonEmpty()) truth = fn == "fn:exists";
      out.type = BooleanType(truth, arg_raise);
      return out;
    }
    if ((fn == "fn:not" || fn == "fn:boolean") && arg0 != nullptr) {
      std::optional<bool> truth = EbvOf(arg0->type);
      if (fn == "fn:not" && truth.has_value()) truth = !*truth;
      out.type =
          BooleanType(truth, arg_raise || !EbvSafe(arg0->type));
      return out;
    }
    if (fn == "fn:sum" && arg0 != nullptr) {
      out.type.card_min = 1;
      out.type.card_max = 1;
      out.type.can_raise = true;
      if (arg0->type.IsEmpty()) {
        // fn:sum(()) is xs:integer 0 — well-defined, EBV false.
        out.type.can_raise = arg0->type.can_raise;
        out.type.const_truth = false;
        StaticFact f;
        f.kind = StaticFact::Kind::kEmptyAggregate;
        f.span = e.span;
        f.detail =
            "fn:sum over a statically empty sequence is always 0 — the "
            "aggregate never sees data";
        AddFact(std::move(f));
      }
      return out;
    }
    if ((fn == "fn:avg" || fn == "fn:min" || fn == "fn:max") &&
        arg0 != nullptr) {
      if (arg0->type.IsEmpty()) {
        out.type = EmptyType(arg0->type.can_raise);
        StaticFact f;
        f.kind = StaticFact::Kind::kEmptyAggregate;
        f.span = e.span;
        f.detail = fn +
                   " over a statically empty sequence is always the empty "
                   "sequence — the aggregate never sees data";
        AddFact(std::move(f));
        return out;
      }
      out.type.card_min = 0;
      out.type.card_max = 1;
      out.type.can_raise = true;
      return out;
    }
    if (fn == "fn:data" && arg0 != nullptr) {
      out.type.card_min = arg0->type.card_min;
      out.type.card_max = arg0->type.card_max;
      out.type.can_raise = arg_raise;
      if (out.type.IsEmpty()) out.type.const_truth = false;
      return out;
    }
    return AbsType{};  // unknown function: 0..∞, can raise
  }

  AbsType InferCast(const Expr& e) {
    AbsType a = Infer(*e.children[0]);
    AbsType out;
    if (e.castable_test) {
      out.type = BooleanType(std::nullopt, a.type.can_raise);
      return out;
    }
    if (a.type.IsEmpty()) {
      if (e.cast_optional) {
        out.type = EmptyType(a.type.can_raise);
      } else {
        out.type.card_min = 0;
        out.type.card_max = 0;
        out.type.can_raise = true;  // cast of () without '?' raises
      }
      return out;
    }
    out.type.card_min = e.cast_optional ? 0 : 1;
    out.type.card_max = 1;
    out.type.can_raise = true;
    if (e.children[0]->kind == ExprKind::kLiteral) {
      auto cast = CastTo(e.children[0]->literal, e.cast_target);
      if (cast.ok()) {
        out.type.can_raise = a.type.can_raise;
        out.type.card_min = 1;
        out.type.const_truth = LiteralEbv(cast.value());
        out.type.boolean_item = e.cast_target == AtomicType::kBoolean;
      } else if (e.cast_target != AtomicType::kDate &&
                 e.cast_target != AtomicType::kDateTime) {
        // Temporal literal casts are XQL014's (Tip 11) territory.
        StaticFact f;
        f.kind = StaticFact::Kind::kImpossibleCast;
        f.span = e.span;
        f.detail = "cast of '" + e.children[0]->literal.Lexical() + "' to " +
                   std::string(AtomicTypeName(e.cast_target)) +
                   " always raises FORG0001";
        AddFact(std::move(f));
      }
    }
    return out;
  }

  AbsType InferConstructor(const Expr& e) {
    bool raise = false;
    for (const ConstructorAttr& attr : e.ctor_attrs) {
      for (const ConstructorContent& part : attr.value_parts) {
        if (part.expr != nullptr) {
          raise = raise || Infer(*part.expr).type.can_raise;
        }
      }
    }
    for (const ConstructorContent& part : e.ctor_content) {
      if (part.expr != nullptr) {
        raise = raise || Infer(*part.expr).type.can_raise;
      }
    }
    AbsType out;
    out.type.card_min = 1;
    out.type.card_max = 1;
    out.type.const_truth = true;  // one node: EBV is true
    out.type.always_nodes = true;
    out.type.can_raise = raise;
    return out;
  }

  const Catalog* catalog_;
  StaticQueryFacts* out_;
  std::map<std::string, AbsType> vars_;
  std::optional<AbsType> context_;
};

}  // namespace

StaticQueryFacts InferStaticTypes(const Expr& body, const Catalog* catalog,
                                  const std::vector<ColumnBinding>& bindings) {
  StaticQueryFacts out;
  Inferencer inf(catalog, &out);
  for (const ColumnBinding& b : bindings) inf.BindColumnVar(b);
  out.body_type = inf.Infer(body).type;
  return out;
}

bool VerifyEmptyWitnesses(const Catalog& catalog,
                          const std::vector<StaticEmptyWitness>& witnesses) {
  for (const StaticEmptyWitness& w : witnesses) {
    if (w.nfa == nullptr) return false;
    auto table = catalog.GetTable(w.table);
    if (!table.ok()) return false;
    const PathSummary* summary = table.value()->path_summary(w.column);
    if (summary == nullptr) return false;
    PathSummary::MatchStats stats;
    if (summary->AnyPathMatches(*w.nfa, &stats)) return false;
  }
  return true;
}

}  // namespace xqdb
