#include "xquery/evaluator.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/str_util.h"
#include "observability/exec_stats.h"
#include "xdm/cast.h"
#include "xdm/compare.h"
#include "xml/qname.h"
#include "xquery/functions.h"

namespace xqdb {

namespace {

/// RAII save/restore of one variable binding (FLWOR scoping).
class VarScope {
 public:
  VarScope(std::map<std::string, Sequence>* vars, const std::string& name)
      : vars_(vars), name_(name) {
    auto it = vars_->find(name);
    if (it != vars_->end()) {
      had_old_ = true;
      old_ = std::move(it->second);
    }
  }
  ~VarScope() {
    if (had_old_) {
      (*vars_)[name_] = std::move(old_);
    } else {
      vars_->erase(name_);
    }
  }
  VarScope(const VarScope&) = delete;
  VarScope& operator=(const VarScope&) = delete;

 private:
  std::map<std::string, Sequence>* vars_;
  std::string name_;
  bool had_old_ = false;
  Sequence old_;
};

Sequence SingleBool(bool b) {
  return Sequence{Item(AtomicValue::Boolean(b))};
}

}  // namespace

bool NodeMatchesTest(const NodeHandle& h, const NodeTestSpec& test) {
  const Node& n = h.node();
  switch (test.kind) {
    case NodeTestSpec::Kind::kAnyNode:
      return true;
    case NodeTestSpec::Kind::kText:
      return n.kind == NodeKind::kText;
    case NodeTestSpec::Kind::kComment:
      return n.kind == NodeKind::kComment;
    case NodeTestSpec::Kind::kDocument:
      return n.kind == NodeKind::kDocument;
    case NodeTestSpec::Kind::kPi:
      if (n.kind != NodeKind::kProcessingInstruction) return false;
      break;
    case NodeTestSpec::Kind::kName:
      // Name tests match the axis's principal node kind only.
      if (n.kind != (test.attribute_axis ? NodeKind::kAttribute
                                         : NodeKind::kElement)) {
        return false;
      }
      break;
  }
  // Compiled at parse time: two integer compares, no lock, no strings.
  return test.name.Matches(NamePool::Global()->PartsOf(n.name));
}

NodeIdx DeepCopyNode(Document* dst, NodeIdx parent, const NodeHandle& src,
                     bool strip_types) {
  const Node& n = src.node();
  auto annot = [&](TypeAnnotation original, TypeAnnotation stripped) {
    return strip_types ? stripped : original;
  };
  switch (n.kind) {
    case NodeKind::kElement: {
      NodeIdx e = dst->AddElement(parent, n.name);
      dst->SetAnnotation(e,
                         annot(n.annotation, TypeAnnotation::kUntyped));
      for (NodeIdx a = n.first_attr; a != kNullNode;
           a = src.doc->node(a).next_sibling) {
        DeepCopyNode(dst, e, NodeHandle{src.doc, a}, strip_types);
      }
      for (NodeIdx c = n.first_child; c != kNullNode;
           c = src.doc->node(c).next_sibling) {
        DeepCopyNode(dst, e, NodeHandle{src.doc, c}, strip_types);
      }
      return e;
    }
    case NodeKind::kAttribute: {
      NodeIdx a = dst->AddAttribute(parent, n.name, n.content);
      dst->SetAnnotation(
          a, annot(n.annotation, TypeAnnotation::kUntypedAtomic));
      return a;
    }
    case NodeKind::kText: {
      NodeIdx t = dst->AddText(parent, n.content);
      dst->SetAnnotation(
          t, annot(n.annotation, TypeAnnotation::kUntypedAtomic));
      return t;
    }
    case NodeKind::kComment:
      return dst->AddComment(parent, n.content);
    case NodeKind::kProcessingInstruction:
      return dst->AddProcessingInstruction(parent, n.name, n.content);
    case NodeKind::kDocument:
      break;
  }
  // Copying a document node copies its children (callers handle this case
  // themselves; reaching here is a bug).
  return kNullNode;
}

Result<Sequence> Evaluator::Eval(const Expr& e) {
  Focus no_focus;
  return EvalExpr(e, no_focus);
}

Result<Sequence> Evaluator::EvalWithFocus(const Expr& e, const Focus& focus) {
  return EvalExpr(e, focus);
}

Result<Sequence> Evaluator::EvalExpr(const Expr& e, const Focus& f) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return Sequence{Item(e.literal)};
    case ExprKind::kEmptySequence:
      return Sequence{};
    case ExprKind::kSequence: {
      Sequence out;
      for (const auto& child : e.children) {
        XQDB_ASSIGN_OR_RETURN(Sequence part, EvalExpr(*child, f));
        // Sequence concatenation flattens; empty sequences vanish (§3.4).
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    }
    case ExprKind::kVarRef: {
      auto it = vars_.find(e.var);
      if (it == vars_.end()) {
        return Status::DynamicError("XPDY0002: unbound variable $" + e.var);
      }
      return it->second;
    }
    case ExprKind::kContextItem:
      if (!f.has_item) {
        return Status::DynamicError(
            "XPDY0002: context item is not defined");
      }
      return Sequence{f.item};
    case ExprKind::kPath:
      return EvalPath(e, f);
    case ExprKind::kFlwor:
      return EvalFlwor(e, f);
    case ExprKind::kQuantified:
      return EvalQuantified(e, f);
    case ExprKind::kIf: {
      XQDB_ASSIGN_OR_RETURN(Sequence cond, EvalExpr(*e.children[0], f));
      XQDB_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
      return EvalExpr(*e.children[b ? 1 : 2], f);
    }
    case ExprKind::kOr: {
      XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
      XQDB_ASSIGN_OR_RETURN(bool lb, EffectiveBooleanValue(lhs));
      if (lb) return SingleBool(true);
      XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
      XQDB_ASSIGN_OR_RETURN(bool rb, EffectiveBooleanValue(rhs));
      return SingleBool(rb);
    }
    case ExprKind::kAnd: {
      XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
      XQDB_ASSIGN_OR_RETURN(bool lb, EffectiveBooleanValue(lhs));
      if (!lb) return SingleBool(false);
      XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
      XQDB_ASSIGN_OR_RETURN(bool rb, EffectiveBooleanValue(rhs));
      return SingleBool(rb);
    }
    case ExprKind::kGeneralCompare: {
      XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
      XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
      XQDB_ASSIGN_OR_RETURN(bool b, GeneralCompare(e.cmp_op, lhs, rhs));
      return SingleBool(b);
    }
    case ExprKind::kValueCompare: {
      XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
      XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
      XQDB_ASSIGN_OR_RETURN(int r, ValueCompare(e.cmp_op, lhs, rhs));
      if (r < 0) return Sequence{};  // Empty operand → empty result.
      return SingleBool(r == 1);
    }
    case ExprKind::kNodeIs: {
      XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
      XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
      if (lhs.empty() || rhs.empty()) return Sequence{};
      if (lhs.size() != 1 || rhs.size() != 1 || !lhs[0].is_node() ||
          !rhs[0].is_node()) {
        return Status::TypeError("XPTY0004: 'is' requires singleton nodes");
      }
      return SingleBool(lhs[0].node() == rhs[0].node());
    }
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kExcept:
      return EvalSetOp(e, f);
    case ExprKind::kRange: {
      XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
      XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
      if (lhs.empty() || rhs.empty()) return Sequence{};
      XQDB_ASSIGN_OR_RETURN(Sequence la, Atomize(lhs));
      XQDB_ASSIGN_OR_RETURN(Sequence ra, Atomize(rhs));
      XQDB_ASSIGN_OR_RETURN(AtomicValue lo,
                            CastTo(la[0].atomic(), AtomicType::kInteger));
      XQDB_ASSIGN_OR_RETURN(AtomicValue hi,
                            CastTo(ra[0].atomic(), AtomicType::kInteger));
      Sequence out;
      for (long long v = lo.integer_value(); v <= hi.integer_value(); ++v) {
        out.push_back(Item(AtomicValue::Integer(v)));
      }
      return out;
    }
    case ExprKind::kArith:
      return EvalArith(e, f);
    case ExprKind::kUnaryMinus: {
      XQDB_ASSIGN_OR_RETURN(Sequence v, EvalExpr(*e.children[0], f));
      if (v.empty()) return Sequence{};
      XQDB_ASSIGN_OR_RETURN(Sequence atoms, Atomize(v));
      if (atoms.size() != 1) {
        return Status::TypeError("XPTY0004: unary '-' cardinality");
      }
      AtomicValue a = atoms[0].atomic();
      if (a.type() == AtomicType::kUntypedAtomic) {
        XQDB_ASSIGN_OR_RETURN(a, CastTo(a, AtomicType::kDouble));
      }
      if (a.type() == AtomicType::kInteger) {
        return Sequence{Item(AtomicValue::Integer(-a.integer_value()))};
      }
      if (a.type() == AtomicType::kDouble) {
        return Sequence{Item(AtomicValue::Double(-a.double_value()))};
      }
      return Status::TypeError("XPTY0004: unary '-' on non-numeric");
    }
    case ExprKind::kFunctionCall:
      return EvalFunctionCall(e, f);
    case ExprKind::kCastAs:
      return EvalCast(e, f);
    case ExprKind::kDirectElement:
      return EvalConstructor(e, f);
    case ExprKind::kXmlColumn: {
      if (provider_ == nullptr) {
        return Status::InvalidArgument(
            "db2-fn:xmlcolumn used without a bound database");
      }
      XQDB_ASSIGN_OR_RETURN(
          std::vector<NodeHandle> docs,
          provider_->XmlColumn(e.table_name, e.column_name));
      Sequence out;
      out.reserve(docs.size());
      for (const NodeHandle& h : docs) out.push_back(Item(h));
      docs_navigated_ += static_cast<long long>(docs.size());
      return out;
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Sequence> Evaluator::EvalFlwor(const Expr& e, const Focus& f) {
  // Recursive clause expansion: clause i binds its variable (a for clause
  // once per item, a let clause once), then clause i+1 runs. Bindings live
  // in vars_ via VarScope — no tuple materialization, so a let-bound
  // sequence is bound once, not copied into every downstream iteration.
  struct Keyed {
    Sequence result;
    std::vector<AtomicValue> keys;
    std::vector<bool> key_empty;
    std::vector<bool> key_nan;
  };
  std::vector<Keyed> keyed;
  bool ordered = !e.order_by.empty();

  std::function<Status(size_t)> run_clause = [&](size_t i) -> Status {
    if (i == e.clauses.size()) {
      if (e.where != nullptr) {
        XQDB_ASSIGN_OR_RETURN(Sequence cond, EvalExpr(*e.where, f));
        XQDB_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(cond));
        if (!b) return Status::OK();
      }
      Keyed k;
      if (ordered) {
        for (const OrderSpec& spec : e.order_by) {
          XQDB_ASSIGN_OR_RETURN(Sequence key_seq, EvalExpr(*spec.key, f));
          XQDB_ASSIGN_OR_RETURN(Sequence atoms, Atomize(key_seq));
          if (atoms.size() > 1) {
            return Status::TypeError("XPTY0004: order-by key cardinality");
          }
          k.key_empty.push_back(atoms.empty());
          AtomicValue key =
              atoms.empty() ? AtomicValue::String("") : atoms[0].atomic();
          k.key_nan.push_back(key.type() == AtomicType::kDouble &&
                              std::isnan(key.double_value()));
          k.keys.push_back(std::move(key));
        }
      }
      XQDB_ASSIGN_OR_RETURN(k.result, EvalExpr(*e.children[0], f));
      keyed.push_back(std::move(k));
      return Status::OK();
    }
    const FlworClause& clause = e.clauses[i];
    XQDB_ASSIGN_OR_RETURN(Sequence bound, EvalExpr(*clause.expr, f));
    VarScope scope(&vars_, clause.var);
    if (clause.kind == FlworClause::Kind::kLet) {
      vars_[clause.var] = std::move(bound);
      return run_clause(i + 1);
    }
    // A for clause over the empty sequence produces no iterations — the
    // binding that *discards* empties (§3.4).
    for (Item& item : bound) {
      vars_[clause.var] = Sequence{std::move(item)};
      XQDB_RETURN_IF_ERROR(run_clause(i + 1));
    }
    return Status::OK();
  };
  XQDB_RETURN_IF_ERROR(run_clause(0));

  if (ordered) {
    Status sort_error = Status::OK();
    std::stable_sort(
        keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
          for (size_t i = 0; i < e.order_by.size(); ++i) {
            bool desc = e.order_by[i].descending;
            if (a.key_empty[i] != b.key_empty[i]) {
              // Empty least (greatest under descending reversal applies
              // uniformly here).
              bool less = a.key_empty[i];
              return desc ? !less : less;
            }
            if (a.key_empty[i]) continue;
            // XQuery §3.8.3: for order by, NaN is equal to itself and less
            // than every other non-empty value. Letting NaN fall through to
            // CompareAtomic's kUnordered made it compare "equal" to
            // *everything* — not a strict weak ordering (3 < 5 but both
            // "equal" NaN), which is UB for std::stable_sort.
            if (a.key_nan[i] != b.key_nan[i]) {
              bool less = a.key_nan[i];
              return desc ? !less : less;
            }
            if (a.key_nan[i]) continue;
            auto r = CompareAtomic(a.keys[i], b.keys[i]);
            if (!r.ok()) {
              if (sort_error.ok()) sort_error = r.status();
              return false;
            }
            if (r.value() == CmpResult::kLess) return !desc;
            if (r.value() == CmpResult::kGreater) return desc;
          }
          return false;
        });
    if (!sort_error.ok()) return sort_error;
  }
  Sequence out;
  for (Keyed& k : keyed) {
    out.insert(out.end(), k.result.begin(), k.result.end());
  }
  return out;
}

Result<Sequence> Evaluator::EvalQuantified(const Expr& e, const Focus& f) {
  XQDB_ASSIGN_OR_RETURN(Sequence domain, EvalExpr(*e.children[0], f));
  VarScope scope(&vars_, e.var);
  for (const Item& item : domain) {
    vars_[e.var] = Sequence{item};
    XQDB_ASSIGN_OR_RETURN(Sequence body, EvalExpr(*e.children[1], f));
    XQDB_ASSIGN_OR_RETURN(bool b, EffectiveBooleanValue(body));
    if (e.quantifier_every && !b) return SingleBool(false);
    if (!e.quantifier_every && b) return SingleBool(true);
  }
  return SingleBool(e.quantifier_every);
}

namespace {

/// Collects descendants of `h` in document order (elements, text, comments,
/// PIs — never attributes), optionally including `h` itself.
void CollectDescendants(const NodeHandle& h, bool include_self,
                        Sequence* out) {
  if (include_self) out->push_back(Item(h));
  const Node& n = h.node();
  if (n.kind != NodeKind::kElement && n.kind != NodeKind::kDocument) return;
  for (NodeIdx c = n.first_child; c != kNullNode;
       c = h.doc->node(c).next_sibling) {
    CollectDescendants(NodeHandle{h.doc, c}, /*include_self=*/true, out);
  }
}

}  // namespace

Result<Sequence> Evaluator::EvalAxisStep(const PathStep& step,
                                         const Sequence& input,
                                         const Focus&) {
  const bool descendant_axis = step.axis == PathAxis::kDescendant ||
                               step.axis == PathAxis::kDescendantOrSelf;
  // Predicate-free descendant steps evaluate as ONE sort-merge structural
  // join over all context nodes: nested subtree intervals merge into
  // disjoint runs, so shared subtrees are scanned once instead of once per
  // context, and the output needs no sort/dedup pass. Steps with
  // predicates keep the per-context loop below (positional predicates are
  // scoped to each context node's candidate list).
  if (structural_enabled_ && descendant_axis && step.predicates.empty()) {
    std::vector<NodeHandle> contexts;
    contexts.reserve(input.size());
    for (const Item& item : input) {
      if (!item.is_node()) {
        return Status::TypeError(
            "XPTY0019: path step applied to an atomic value");
      }
      contexts.push_back(item.node());
    }
    StructuralJoinStats js;
    Sequence out = StructuralDescendantJoin(
        std::move(contexts), step.axis == PathAxis::kDescendantOrSelf,
        step.test, &js);
    if (stats_ != nullptr) {
      stats_->intervals_compared += js.intervals_compared;
      stats_->structural_join_emitted += js.emitted;
    }
    return out;
  }

  Sequence out;
  for (const Item& item : input) {
    if (!item.is_node()) {
      return Status::TypeError(
          "XPTY0019: path step applied to an atomic value");
    }
    NodeHandle h = item.node();
    Sequence candidates;
    switch (step.axis) {
      case PathAxis::kChild: {
        const Node& n = h.node();
        if (n.kind == NodeKind::kElement || n.kind == NodeKind::kDocument) {
          for (NodeIdx c = n.first_child; c != kNullNode;
               c = h.doc->node(c).next_sibling) {
            NodeHandle ch{h.doc, c};
            if (NodeMatchesTest(ch, step.test)) {
              candidates.push_back(Item(ch));
            }
          }
        }
        break;
      }
      case PathAxis::kDescendant:
      case PathAxis::kDescendantOrSelf: {
        const bool or_self = step.axis == PathAxis::kDescendantOrSelf;
        if (structural_enabled_) {
          // Per-context interval scan (iterative, O(subtree)): candidates
          // stay grouped per context for the predicate pass.
          StructuralJoinStats js;
          AppendSubtreeInterval(h, or_self, step.test, &candidates, &js);
          if (stats_ != nullptr) {
            stats_->intervals_compared += js.intervals_compared;
            stats_->structural_join_emitted += js.emitted;
          }
          break;
        }
        Sequence all;
        CollectDescendants(h, or_self, &all);
        for (const Item& d : all) {
          if (NodeMatchesTest(d.node(), step.test)) candidates.push_back(d);
        }
        break;
      }
      case PathAxis::kAncestor:
      case PathAxis::kAncestorOrSelf: {
        // Reverse axis: candidates are produced nearest-ancestor-first so
        // positional predicates count from the context node outward
        // (XPath §3.2.1); the final SortDocOrderDedup restores document
        // order. Each hop is one interval-containment frame of the
        // ancestor structural join, evaluated by parent-chain walk because
        // the ancestor set of one node IS its parent chain — O(depth),
        // already optimal, no recursion.
        if (step.axis == PathAxis::kAncestorOrSelf &&
            NodeMatchesTest(h, step.test)) {
          candidates.push_back(Item(h));
        }
        for (NodeHandle p = ParentOf(h); p.valid(); p = ParentOf(p)) {
          if (stats_ != nullptr && structural_enabled_) {
            ++stats_->intervals_compared;
          }
          if (NodeMatchesTest(p, step.test)) candidates.push_back(Item(p));
        }
        break;
      }
      case PathAxis::kSelf:
        if (NodeMatchesTest(h, step.test)) candidates.push_back(Item(h));
        break;
      case PathAxis::kAttribute: {
        const Node& n = h.node();
        if (n.kind == NodeKind::kElement) {
          for (NodeIdx a = n.first_attr; a != kNullNode;
               a = h.doc->node(a).next_sibling) {
            NodeHandle ah{h.doc, a};
            if (NodeMatchesTest(ah, step.test)) {
              candidates.push_back(Item(ah));
            }
          }
        }
        break;
      }
      case PathAxis::kParent: {
        NodeHandle p = ParentOf(h);
        if (p.valid() && NodeMatchesTest(p, step.test)) {
          candidates.push_back(Item(p));
        }
        break;
      }
    }
    XQDB_ASSIGN_OR_RETURN(Sequence filtered,
                          ApplyPredicates(step, std::move(candidates)));
    out.insert(out.end(), filtered.begin(), filtered.end());
  }
  return SortDocOrderDedup(std::move(out));
}

Result<Sequence> Evaluator::ApplyPredicates(const PathStep& step,
                                            Sequence candidates) {
  for (const auto& pred : step.predicates) {
    Sequence kept;
    long long size = static_cast<long long>(candidates.size());
    for (long long i = 0; i < size; ++i) {
      Focus pf;
      pf.has_item = true;
      pf.item = candidates[static_cast<size_t>(i)];
      pf.position = i + 1;
      pf.size = size;
      XQDB_ASSIGN_OR_RETURN(Sequence value, EvalExpr(*pred, pf));
      bool keep;
      if (value.size() == 1 && value[0].is_atomic() &&
          value[0].atomic().is_numeric()) {
        keep = value[0].atomic().AsDouble() == static_cast<double>(i + 1);
      } else {
        XQDB_ASSIGN_OR_RETURN(keep, EffectiveBooleanValue(value));
      }
      if (keep) kept.push_back(candidates[static_cast<size_t>(i)]);
    }
    candidates = std::move(kept);
  }
  return candidates;
}

Result<Sequence> Evaluator::EvalExprStep(const PathStep& step,
                                         const Sequence& input,
                                         bool first_step,
                                         const Focus& outer) {
  Sequence out;
  if (first_step) {
    XQDB_ASSIGN_OR_RETURN(Sequence value, EvalExpr(*step.expr, outer));
    XQDB_ASSIGN_OR_RETURN(out, ApplyPredicates(step, std::move(value)));
    return out;
  }
  long long size = static_cast<long long>(input.size());
  for (long long i = 0; i < size; ++i) {
    Focus sf;
    sf.has_item = true;
    sf.item = input[static_cast<size_t>(i)];
    sf.position = i + 1;
    sf.size = size;
    XQDB_ASSIGN_OR_RETURN(Sequence value, EvalExpr(*step.expr, sf));
    XQDB_ASSIGN_OR_RETURN(Sequence filtered,
                          ApplyPredicates(step, std::move(value)));
    out.insert(out.end(), filtered.begin(), filtered.end());
  }
  return out;
}

Result<Sequence> Evaluator::EvalPath(const Expr& e, const Focus& f) {
  Sequence current;
  size_t first = 0;
  bool started = false;

  if (e.absolute) {
    // Leading '/' is fn:root(.) treat as document-node() — a *type error*
    // when the tree is rooted at a constructed element (paper §3.5, Q25).
    if (!f.has_item) {
      return Status::DynamicError(
          "XPDY0002: absolute path with no context item");
    }
    if (!f.item.is_node()) {
      return Status::TypeError("XPTY0020: context item is not a node");
    }
    NodeHandle root = f.item.node();
    while (true) {
      NodeHandle p = ParentOf(root);
      if (!p.valid()) break;
      root = p;
    }
    if (root.kind() != NodeKind::kDocument) {
      return Status::TypeError(
          "XPDY0050: leading '/' requires a tree rooted at a document node "
          "(context tree is rooted at an element, e.g. a constructed node)");
    }
    current.push_back(Item(root));
    started = true;
    if (e.absolute_slashslash) {
      PathStep dos;
      dos.is_axis_step = true;
      dos.axis = PathAxis::kDescendantOrSelf;
      dos.test.kind = NodeTestSpec::Kind::kAnyNode;
      XQDB_ASSIGN_OR_RETURN(current, EvalAxisStep(dos, current, f));
    }
  }

  for (size_t i = first; i < e.steps.size(); ++i) {
    const PathStep& step = e.steps[i];
    bool is_first_unstarted = !started && i == 0;
    if (step.is_axis_step) {
      if (is_first_unstarted) {
        if (!f.has_item) {
          return Status::DynamicError(
              "XPDY0002: relative path with no context item");
        }
        current.push_back(f.item);
      }
      XQDB_ASSIGN_OR_RETURN(current, EvalAxisStep(step, current, f));
    } else {
      XQDB_ASSIGN_OR_RETURN(current,
                            EvalExprStep(step, current, is_first_unstarted,
                                         f));
      // Non-final steps must produce nodes; the final step may produce
      // atomic values (Tip 1's `custid/xs:double(.)`).
      bool has_node = false, has_atomic = false;
      for (const Item& item : current) {
        (item.is_node() ? has_node : has_atomic) = true;
      }
      if (has_node && has_atomic) {
        return Status::TypeError(
            "XPTY0018: path step mixes nodes and atomic values");
      }
      if (has_atomic && i + 1 < e.steps.size()) {
        return Status::TypeError(
            "XPTY0019: intermediate path step produced atomic values");
      }
      if (has_node) {
        XQDB_ASSIGN_OR_RETURN(current, SortDocOrderDedup(std::move(current)));
      }
    }
    started = true;
  }
  return current;
}

Result<Sequence> Evaluator::EvalArith(const Expr& e, const Focus& f) {
  XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
  XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
  if (lhs.empty() || rhs.empty()) return Sequence{};
  XQDB_ASSIGN_OR_RETURN(Sequence la, Atomize(lhs));
  XQDB_ASSIGN_OR_RETURN(Sequence ra, Atomize(rhs));
  if (la.size() != 1 || ra.size() != 1) {
    return Status::TypeError("XPTY0004: arithmetic operand cardinality");
  }
  AtomicValue a = la[0].atomic(), b = ra[0].atomic();
  if (a.type() == AtomicType::kUntypedAtomic) {
    XQDB_ASSIGN_OR_RETURN(a, CastTo(a, AtomicType::kDouble));
  }
  if (b.type() == AtomicType::kUntypedAtomic) {
    XQDB_ASSIGN_OR_RETURN(b, CastTo(b, AtomicType::kDouble));
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::TypeError("XPTY0004: arithmetic on non-numeric operands");
  }
  bool both_int = a.type() == AtomicType::kInteger &&
                  b.type() == AtomicType::kInteger;
  switch (e.arith_op) {
    case ArithOp::kAdd:
      if (both_int) {
        return Sequence{
            Item(AtomicValue::Integer(a.integer_value() + b.integer_value()))};
      }
      return Sequence{Item(AtomicValue::Double(a.AsDouble() + b.AsDouble()))};
    case ArithOp::kSub:
      if (both_int) {
        return Sequence{
            Item(AtomicValue::Integer(a.integer_value() - b.integer_value()))};
      }
      return Sequence{Item(AtomicValue::Double(a.AsDouble() - b.AsDouble()))};
    case ArithOp::kMul:
      if (both_int) {
        return Sequence{
            Item(AtomicValue::Integer(a.integer_value() * b.integer_value()))};
      }
      return Sequence{Item(AtomicValue::Double(a.AsDouble() * b.AsDouble()))};
    case ArithOp::kDiv:
      if (b.AsDouble() == 0 && both_int) {
        return Status::DynamicError("FOAR0001: division by zero");
      }
      return Sequence{Item(AtomicValue::Double(a.AsDouble() / b.AsDouble()))};
    case ArithOp::kIDiv: {
      XQDB_ASSIGN_OR_RETURN(AtomicValue ia, CastTo(a, AtomicType::kInteger));
      XQDB_ASSIGN_OR_RETURN(AtomicValue ib, CastTo(b, AtomicType::kInteger));
      if (ib.integer_value() == 0) {
        return Status::DynamicError("FOAR0001: integer division by zero");
      }
      return Sequence{Item(
          AtomicValue::Integer(ia.integer_value() / ib.integer_value()))};
    }
    case ArithOp::kMod: {
      if (both_int) {
        if (b.integer_value() == 0) {
          return Status::DynamicError("FOAR0001: modulo by zero");
        }
        return Sequence{Item(
            AtomicValue::Integer(a.integer_value() % b.integer_value()))};
      }
      return Sequence{
          Item(AtomicValue::Double(std::fmod(a.AsDouble(), b.AsDouble())))};
    }
  }
  return Status::Internal("unhandled arithmetic operator");
}

Result<Sequence> Evaluator::EvalSetOp(const Expr& e, const Focus& f) {
  XQDB_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*e.children[0], f));
  XQDB_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*e.children[1], f));
  for (const Sequence* side : {&lhs, &rhs}) {
    for (const Item& item : *side) {
      if (!item.is_node()) {
        return Status::TypeError(
            "XPTY0004: set operations require node sequences");
      }
    }
  }
  auto contains = [](const Sequence& seq, const NodeHandle& h) {
    for (const Item& item : seq) {
      if (item.node() == h) return true;
    }
    return false;
  };
  Sequence out;
  switch (e.kind) {
    case ExprKind::kUnion:
      out = lhs;
      out.insert(out.end(), rhs.begin(), rhs.end());
      break;
    case ExprKind::kIntersect:
      for (const Item& item : lhs) {
        if (contains(rhs, item.node())) out.push_back(item);
      }
      break;
    case ExprKind::kExcept:
      // Node *identity* decides membership — the §3.6 condition-5 pitfall:
      // constructed copies are distinct nodes, so `$view/@price except
      // base/@price` removes nothing.
      for (const Item& item : lhs) {
        if (!contains(rhs, item.node())) out.push_back(item);
      }
      break;
    default:
      return Status::Internal("not a set op");
  }
  return SortDocOrderDedup(std::move(out));
}

Result<Sequence> Evaluator::EvalFunctionCall(const Expr& e, const Focus& f) {
  const auto& registry = BuiltinRegistry();
  auto it = registry.find(e.fn_name);
  if (it == registry.end()) {
    return Status::NotFound("unknown function " + e.fn_name + "()");
  }
  const BuiltinEntry& entry = it->second;
  int argc = static_cast<int>(e.children.size());
  if (argc < entry.min_arity ||
      (entry.max_arity >= 0 && argc > entry.max_arity)) {
    return Status::TypeError("XPST0017: wrong number of arguments to " +
                             e.fn_name + "()");
  }
  std::vector<Sequence> args;
  args.reserve(e.children.size());
  for (const auto& child : e.children) {
    XQDB_ASSIGN_OR_RETURN(Sequence arg, EvalExpr(*child, f));
    args.push_back(std::move(arg));
  }
  FnContext ctx;
  ctx.focus = &f;
  ctx.runtime = runtime_;
  return entry.fn(args, ctx);
}

Result<Sequence> Evaluator::EvalCast(const Expr& e, const Focus& f) {
  XQDB_ASSIGN_OR_RETURN(Sequence v, EvalExpr(*e.children[0], f));
  XQDB_ASSIGN_OR_RETURN(Sequence atoms, Atomize(v));
  if (e.castable_test) {
    // "castable as": a boolean probe, never an error.
    if (atoms.empty()) return SingleBool(e.cast_optional);
    if (atoms.size() > 1) return SingleBool(false);
    return SingleBool(CastTo(atoms[0].atomic(), e.cast_target).ok());
  }
  if (atoms.empty()) {
    if (e.cast_optional) return Sequence{};
    return Status::TypeError("XPTY0004: cast of empty sequence");
  }
  if (atoms.size() > 1) {
    return Status::TypeError("XPTY0004: cast of a multi-item sequence");
  }
  XQDB_ASSIGN_OR_RETURN(AtomicValue out,
                        CastTo(atoms[0].atomic(), e.cast_target));
  return Sequence{Item(std::move(out))};
}

Result<std::string> Evaluator::EvalAttrValue(
    const std::vector<ConstructorContent>& parts, const Focus& f) {
  std::string out;
  for (const ConstructorContent& part : parts) {
    if (part.is_text) {
      out += part.text;
      continue;
    }
    XQDB_ASSIGN_OR_RETURN(Sequence value, EvalExpr(*part.expr, f));
    XQDB_ASSIGN_OR_RETURN(Sequence atoms, Atomize(value));
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out += ' ';
      out += atoms[i].atomic().Lexical();
    }
  }
  return out;
}

Result<Sequence> Evaluator::EvalConstructor(const Expr& e, const Focus& f) {
  Document* doc = runtime_->NewDocument();
  NodeIdx elem = doc->AddElement(kNullNode, e.elem_name);
  bool strip = sctx_ == nullptr ||
               sctx_->construction_mode() ==
                   StaticContext::ConstructionMode::kStrip;

  auto add_attribute = [&](NameId name,
                           std::string value) -> Status {
    for (NodeIdx a = doc->node(elem).first_attr; a != kNullNode;
         a = doc->node(a).next_sibling) {
      if (doc->node(a).name == name) {
        return Status::DynamicError(
            "XQDY0025: duplicate attribute '" +
            std::string(NamePool::Global()->LocalOf(name)) +
            "' in constructed element");
      }
    }
    doc->AddAttribute(elem, name, std::move(value));
    return Status::OK();
  };

  for (const ConstructorAttr& attr : e.ctor_attrs) {
    XQDB_ASSIGN_OR_RETURN(std::string value,
                          EvalAttrValue(attr.value_parts, f));
    XQDB_RETURN_IF_ERROR(add_attribute(attr.name, std::move(value)));
  }

  bool saw_content = false;  // Non-attribute content seen.
  std::string pending_text;
  auto flush_text = [&]() {
    if (!pending_text.empty()) {
      doc->AddText(elem, std::move(pending_text));
      pending_text.clear();
    }
  };

  for (const ConstructorContent& part : e.ctor_content) {
    if (part.is_text) {
      pending_text += part.text;
      saw_content = true;
      continue;
    }
    XQDB_ASSIGN_OR_RETURN(Sequence value, EvalExpr(*part.expr, f));
    bool last_was_atomic = false;
    for (const Item& item : value) {
      if (item.is_atomic()) {
        // Adjacent atomic values are joined with a single space — the
        // §3.6 condition-3 pitfall ("p1 p2").
        if (last_was_atomic) pending_text += ' ';
        pending_text += item.atomic().Lexical();
        last_was_atomic = true;
        saw_content = true;
        continue;
      }
      last_was_atomic = false;
      const NodeHandle& h = item.node();
      switch (h.kind()) {
        case NodeKind::kAttribute: {
          if (saw_content) {
            return Status::TypeError(
                "XQTY0024: attribute node after non-attribute content");
          }
          const Node& an = h.node();
          XQDB_RETURN_IF_ERROR(add_attribute(an.name, an.content));
          break;
        }
        case NodeKind::kDocument: {
          saw_content = true;
          flush_text();
          for (NodeIdx c = h.node().first_child; c != kNullNode;
               c = h.doc->node(c).next_sibling) {
            DeepCopyNode(doc, elem, NodeHandle{h.doc, c}, strip);
          }
          break;
        }
        default: {
          saw_content = true;
          flush_text();
          DeepCopyNode(doc, elem, h, strip);
          break;
        }
      }
    }
  }
  flush_text();
  return Sequence{Item(NodeHandle{doc, elem})};
}

}  // namespace xqdb
