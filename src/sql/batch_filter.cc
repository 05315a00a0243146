#include "sql/batch_filter.h"

#include <algorithm>

#include "xdm/cast.h"
#include "xdm/item.h"
#include "xpath/pattern.h"
#include "xquery/ast.h"
#include "xquery/parser.h"

namespace xqdb {

namespace {

/// Numeric constant of a comparison operand (literal or negated literal).
/// The kernel compares doubles; an integer constant converts with the same
/// AsDouble() promotion CompareAtomic applies to mixed numeric pairs.
std::optional<double> NumericConstantOf(const Expr& e) {
  if (e.kind == ExprKind::kLiteral && e.literal.is_numeric()) {
    return e.literal.AsDouble();
  }
  if (e.kind == ExprKind::kUnaryMinus && e.children.size() == 1 &&
      e.children[0]->kind == ExprKind::kLiteral &&
      e.children[0]->literal.is_numeric()) {
    return -e.children[0]->literal.AsDouble();
  }
  return std::nullopt;
}

/// A single-axis-step relative path (`@price` or `price`) — the only
/// comparison-operand shape whose matches are, by construction, direct
/// children/attributes of the predicate's context node, which is what lets
/// the kernel recover the context grouping from each match's parent link.
const PathStep* SingleRelativeStep(const Expr& e) {
  if (e.kind != ExprKind::kPath || e.absolute || e.steps.size() != 1) {
    return nullptr;
  }
  const PathStep& s = e.steps[0];
  if (!s.is_axis_step || !s.predicates.empty()) return nullptr;
  if (s.test.kind != NodeTestSpec::Kind::kName) return nullptr;
  if (s.axis != PathAxis::kAttribute && s.axis != PathAxis::kChild) {
    return nullptr;
  }
  return &s;
}

/// Tries to compile one XMLEXISTS conjunct into a kernel.
std::optional<BatchKernel> CompileConjunct(
    const SqlExpr& e, std::span<const ColumnSlot> schema) {
  if (e.kind != SqlExprKind::kXmlExists || e.xquery == nullptr) {
    return std::nullopt;
  }
  const EmbeddedXQuery& q = *e.xquery;
  if (q.passing.size() != 1 || q.passing[0].value == nullptr ||
      q.passing[0].value->kind != SqlExprKind::kColumnRef) {
    return std::nullopt;
  }
  int slot = FindColumnSlot(schema, q.passing[0].value->qualifier,
                            q.passing[0].value->column);
  if (slot < 0) return std::nullopt;
  const Expr* body = q.parsed.body.get();
  if (body == nullptr || body->kind != ExprKind::kPath || body->absolute) {
    return std::nullopt;
  }

  // Path source: the passed variable, bound to the column's document.
  if (body->steps.empty() || body->steps[0].is_axis_step ||
      !body->steps[0].predicates.empty()) {
    return std::nullopt;
  }
  const Expr* src = body->steps[0].expr.get();
  if (src == nullptr || src->kind != ExprKind::kVarRef ||
      src->var != q.passing[0].var_name) {
    return std::nullopt;
  }

  // Axis steps: child/descendant/attribute name steps and bare `//`;
  // predicates are forbidden except a single one on the final step.
  std::vector<NormStep> steps;
  bool pending_skip = false;
  const Expr* compare = nullptr;
  for (size_t i = 1; i < body->steps.size(); ++i) {
    const PathStep& step = body->steps[i];
    if (!step.is_axis_step || !IsNameOnlyStep(step) ||
        !AppendNormStep(step, &pending_skip, &steps)) {
      return std::nullopt;
    }
    if (step.predicates.empty()) continue;
    const bool is_last = i + 1 == body->steps.size();
    if (!is_last || step.predicates.size() != 1) return std::nullopt;
    // The predicated step must be element-producing: the kernel reads the
    // comparison operand off the context node's attribute/child links.
    if (step.axis != PathAxis::kChild && step.axis != PathAxis::kDescendant) {
      return std::nullopt;
    }
    compare = step.predicates[0].get();
  }
  if (pending_skip) return std::nullopt;  // trailing '//'
  if (steps.empty()) return std::nullopt;

  BatchKernel kernel;
  kernel.xml_slot = slot;

  if (compare != nullptr) {
    if (compare->kind != ExprKind::kGeneralCompare ||
        compare->children.size() != 2) {
      return std::nullopt;
    }
    const Expr& lhs = *compare->children[0];
    const Expr& rhs = *compare->children[1];
    const PathStep* operand = SingleRelativeStep(lhs);
    std::optional<double> constant = NumericConstantOf(rhs);
    CompareOp op = compare->cmp_op;
    if (operand == nullptr || !constant.has_value()) {
      operand = SingleRelativeStep(rhs);
      constant = NumericConstantOf(lhs);
      op = FlipCompareOp(compare->cmp_op);
      if (operand == nullptr || !constant.has_value()) return std::nullopt;
    }
    bool operand_skip = false;
    if (!AppendNormStep(*operand, &operand_skip, &steps)) return std::nullopt;
    kernel.has_compare = true;
    kernel.op = op;
    kernel.literal = *constant;
  }

  Pattern pattern = MakePattern({std::move(steps)});
  auto nfa = PatternNfa::Compile(pattern);
  if (!nfa.ok()) return std::nullopt;
  kernel.nfa = std::make_shared<const PatternNfa>(std::move(nfa).value());
  kernel.pattern_text = PatternToString(pattern);
  return kernel;
}

/// Vectorizable comparison, exactly reproducing ApplyOp over CompareAtomic's
/// numeric branch: IEEE semantics make every ordered comparison with NaN
/// false and `!=` true, which is ApplyOp's kUnordered rule.
bool CompareKey(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

/// Gather-phase row states beyond the shared verdict constants.
constexpr uint8_t kRowGathered = 3;

/// Streams one row's document through the pattern NFA, appending gathered
/// values/groups/flags to the batch. Returns a pre-verdict: false (NULL
/// cell / existence miss), true (existence hit), fallback (cell shape the
/// kernel does not model), or gathered (compare kernels: decide later).
uint8_t GatherRow(const BatchKernel& k, const std::vector<SqlValue>& row,
                  ValueBatch* b) {
  if (k.xml_slot < 0 || static_cast<size_t>(k.xml_slot) >= row.size()) {
    return kBatchRowFallback;
  }
  const SqlValue& cell = row[static_cast<size_t>(k.xml_slot)];
  if (cell.is_null()) return kBatchRowFalse;  // empty binding: no matches
  if (cell.kind() != SqlValue::Kind::kXml) return kBatchRowFallback;
  const Sequence& seq = cell.xml_value();
  if (seq.size() != 1 || !seq[0].is_node()) return kBatchRowFallback;
  const NodeHandle& h = seq[0].node();
  // Pattern matching starts at the document node; anything else (fragment
  // root, mid-document node) must keep the evaluator's navigation.
  if (h.doc == nullptr || h.idx != h.doc->root() ||
      h.doc->node(h.idx).kind != NodeKind::kDocument) {
    return kBatchRowFallback;
  }
  const Document& doc = *h.doc;

  if (!k.has_compare) {
    bool any = false;
    ForEachMatch(*k.nfa, doc, [&](NodeIdx) { any = true; });
    return any ? kBatchRowTrue : kBatchRowFalse;
  }

  ForEachMatch(*k.nfa, doc, [&](NodeIdx n) {
    uint8_t flags = 0;
    double value = 0;
    auto typed = TypedValueOf(NodeHandle{&doc, n});
    if (!typed.ok()) {
      flags = kBatchValueTypedFail;
    } else if (typed->type() == AtomicType::kUntypedAtomic) {
      auto cast = CastTo(*typed, AtomicType::kDouble);
      if (cast.ok()) {
        value = cast->double_value();
      } else {
        flags = kBatchValueCastFail;
      }
    } else if (typed->type() == AtomicType::kDouble) {
      value = typed->double_value();
    } else {
      // Schema-annotated integers keep CompareAtomic's exact long-long
      // path, strings raise XPTY0004 — both outside the double kernel.
      flags = kBatchValueUnsupported;
    }
    b->values.push_back(value);
    b->flags.push_back(flags);
    b->groups.push_back(doc.node(n).parent);
  });
  return kRowGathered;
}

/// Decides one gathered row of a compare kernel, replicating the
/// evaluator's per-context-node evaluation order:
///  - Atomize runs over a context node's whole operand sequence before any
///    pair comparison, so a typed-value failure anywhere in the row errors
///    even when an earlier value already matched;
///  - within one context node the pair loop short-circuits on the first
///    hit, so values after a hit (including uncastable ones) are skipped;
///  - a cast failure reached before its group's first hit errors the query.
/// Error rows return kBatchRowFallback — the exact row-at-a-time pass
/// reproduces the precise Status.
uint8_t DecideCompareRow(const BatchKernel& k, const ValueBatch& b, size_t i,
                         std::vector<NodeIdx>* passed_groups) {
  const uint32_t v0 = b.row_begin[i];
  const uint32_t v1 = b.row_begin[i + 1];
  for (uint32_t v = v0; v < v1; ++v) {
    if (b.flags[v] & (kBatchValueTypedFail | kBatchValueUnsupported)) {
      return kBatchRowFallback;
    }
  }
  passed_groups->clear();
  for (uint32_t v = v0; v < v1; ++v) {
    const NodeIdx g = b.groups[v];
    bool group_done = false;
    for (NodeIdx p : *passed_groups) {
      if (p == g) {
        group_done = true;
        break;
      }
    }
    if (group_done) continue;
    if (b.flags[v] & kBatchValueCastFail) return kBatchRowFallback;
    if (CompareKey(k.op, b.values[v], k.literal)) passed_groups->push_back(g);
  }
  return passed_groups->empty() ? kBatchRowFalse : kBatchRowTrue;
}

}  // namespace

BatchProgram CompileBatchProgram(const SqlExpr& where,
                                 std::span<const ColumnSlot> schema) {
  BatchProgram program;
  std::vector<const SqlExpr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  for (const SqlExpr* conjunct : conjuncts) {
    BatchStep step;
    step.conjunct = conjunct;
    step.kernel = CompileConjunct(*conjunct, schema);
    if (step.kernel.has_value()) program.any_kernel = true;
    program.steps.push_back(std::move(step));
  }
  return program;
}

void RunBatchKernel(const BatchKernel& kernel, const RowRefs& rows,
                    const std::vector<uint32_t>& sel, ValueBatch* scratch,
                    std::vector<uint8_t>* verdicts, ExecStats* stats) {
  verdicts->resize(sel.size());
  std::vector<NodeIdx> passed_groups;
  for (size_t base = 0; base < sel.size(); base += kBatchRows) {
    const size_t count = std::min(kBatchRows, sel.size() - base);
    scratch->Reset();
    scratch->row_begin.reserve(count + 1);
    for (size_t i = 0; i < count; ++i) {
      scratch->row_begin.push_back(
          static_cast<uint32_t>(scratch->values.size()));
      scratch->row_flags.push_back(
          GatherRow(kernel, *rows[sel[base + i]], scratch));
    }
    scratch->row_begin.push_back(static_cast<uint32_t>(scratch->values.size()));
    ++stats->batches_executed;
    for (size_t i = 0; i < count; ++i) {
      uint8_t v = scratch->row_flags[i];
      if (v == kRowGathered) {
        v = DecideCompareRow(kernel, *scratch, i, &passed_groups);
      }
      (*verdicts)[base + i] = v;
      if (v != kBatchRowFallback) ++stats->batch_rows;
    }
  }
}

}  // namespace xqdb
