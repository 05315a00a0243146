#include "analysis/rewriter.h"

namespace xqdb {

namespace {

std::string_view Slice(std::string_view text, const SourceSpan& span) {
  if (!span.IsValid() || span.end > text.size()) return {};
  return text.substr(span.begin, span.end - span.begin);
}

/// The final step of the content path, when it is a plain child::name axis
/// step — the name every node E produces is guaranteed to carry.
const PathStep* FinalChildNameStep(const Expr& e) {
  if (e.kind != ExprKind::kPath || e.steps.empty()) return nullptr;
  const PathStep& last = e.steps.back();
  if (!last.is_axis_step || last.axis != PathAxis::kChild ||
      last.test.kind != NodeTestSpec::Kind::kName || last.test.name.ns_any() ||
      last.test.name.local_any()) {
    return nullptr;
  }
  return &last;
}

}  // namespace

std::optional<std::string> ComposeConstructedView(const Expr& path,
                                                  std::string_view text) {
  // Shape: a relative path whose first step is a parenthesized one-clause
  // FLWOR returning a single-content element constructor, where the next
  // step selects the *content* elements by their name (a child step on the
  // wrapper reaches the copies E put inside it):
  //
  //   (for $b in SRC return <w>{E}</w>) / c [preds] / REST
  //
  // with E a path ending in child::c. Every node of E is then a c element,
  // so the navigation selects exactly the copies, and predicates/REST can
  // be applied to the originals instead.
  if (path.kind != ExprKind::kPath || path.absolute) return std::nullopt;
  if (path.steps.size() < 2) return std::nullopt;
  const PathStep& first = path.steps[0];
  if (first.is_axis_step || first.expr == nullptr ||
      first.expr->kind != ExprKind::kFlwor || !first.predicates.empty()) {
    return std::nullopt;
  }
  const Expr& view = *first.expr;
  if (view.clauses.size() != 1 ||
      view.clauses[0].kind != FlworClause::Kind::kFor ||
      view.where != nullptr || !view.order_by.empty() ||
      view.children.empty()) {
    return std::nullopt;
  }
  const FlworClause& bind = view.clauses[0];
  if (bind.expr == nullptr || !bind.expr->span.IsValid()) return std::nullopt;
  const Expr& ret = *view.children[0];
  if (ret.kind != ExprKind::kDirectElement || !ret.ctor_attrs.empty() ||
      ret.ctor_content.size() != 1 || ret.ctor_content[0].expr == nullptr ||
      !ret.ctor_content[0].expr->span.IsValid()) {
    return std::nullopt;
  }
  const Expr& content = *ret.ctor_content[0].expr;
  const PathStep* produced = FinalChildNameStep(content);
  if (produced == nullptr) return std::nullopt;
  // The step after the view must select the content elements by the exact
  // name the content path produces.
  const PathStep& select = path.steps[1];
  if (!select.is_axis_step || select.axis != PathAxis::kChild ||
      select.test.kind != NodeTestSpec::Kind::kName ||
      select.test.name.ns_any() || select.test.name.local_any() ||
      select.test.name != produced->test.name) {
    return std::nullopt;
  }
  // Rebuild the remaining navigation textually: the select step's
  // predicates apply to (E) directly, then plain name-test steps follow;
  // predicates come back verbatim from their source spans.
  std::string rest;
  for (const auto& pred : select.predicates) {
    if (pred == nullptr || !pred->span.IsValid()) return std::nullopt;
    rest += "[" + std::string(Slice(text, pred->span)) + "]";
  }
  for (size_t i = 2; i < path.steps.size(); ++i) {
    const PathStep& step = path.steps[i];
    if (!step.is_axis_step || step.test.kind != NodeTestSpec::Kind::kName ||
        step.test.name.ns != kNoNamespace || step.test.name.local_any()) {
      return std::nullopt;
    }
    const std::string local(
        NamePool::Global()->LocalText(step.test.name.local));
    switch (step.axis) {
      case PathAxis::kChild:
        rest += "/" + local;
        break;
      case PathAxis::kDescendant:
        rest += "//" + local;
        break;
      case PathAxis::kAttribute:
        rest += "/@" + local;
        break;
      default:
        return std::nullopt;
    }
    for (const auto& pred : step.predicates) {
      if (pred == nullptr || !pred->span.IsValid()) return std::nullopt;
      rest += "[" + std::string(Slice(text, pred->span)) + "]";
    }
  }
  std::string_view src = Slice(text, bind.expr->span);
  std::string_view content_text = Slice(text, content.span);
  if (src.empty() || content_text.empty()) return std::nullopt;
  return "for $" + bind.var + " in " + std::string(src) + " return (" +
         std::string(content_text) + ")" + rest;
}

}  // namespace xqdb
