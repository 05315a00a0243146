#include "xquery/structural_join.h"

#include <algorithm>
#include <cstring>

#include "xquery/evaluator.h"

namespace xqdb {

Sequence StructuralDescendantJoin(std::vector<NodeHandle> contexts,
                                  bool or_self, const NodeTestSpec& test,
                                  StructuralJoinStats* stats) {
  std::sort(contexts.begin(), contexts.end(),
            [](const NodeHandle& a, const NodeHandle& b) {
              return DocOrderLess(a, b);
            });
  Sequence out;
  size_t i = 0;
  while (i < contexts.size()) {
    const Document* doc = contexts[i].doc;
    size_t doc_end = i;
    while (doc_end < contexts.size() && contexts[doc_end].doc == doc) {
      ++doc_end;
    }
    // Merge this document's sorted intervals into disjoint runs. Subtree
    // intervals never partially overlap: the next context either nests
    // inside the current run (start < hi) or begins a new one.
    size_t k = i;
    while (k < doc_end) {
      const NodeIdx lo = contexts[k].idx;
      NodeIdx hi = doc->subtree_end(lo);
      const size_t run_begin = k;
      ++k;
      while (k < doc_end) {
        ++stats->intervals_compared;
        if (contexts[k].idx >= hi) break;
        hi = std::max(hi, doc->subtree_end(contexts[k].idx));
        ++k;
      }
      size_t ctx = run_begin;  // or-self attribute-context exception walker
      for (NodeIdx n = or_self ? lo : lo + 1; n < hi; ++n) {
        NodeHandle h{doc, n};
        if (h.kind() == NodeKind::kAttribute) {
          if (!or_self) continue;
          while (ctx < k && contexts[ctx].idx < n) ++ctx;
          if (ctx >= k || contexts[ctx].idx != n) continue;
        }
        if (NodeMatchesTest(h, test)) {
          out.push_back(Item(h));
          ++stats->emitted;
        }
      }
    }
    i = doc_end;
  }
  return out;
}

void AppendSubtreeInterval(const NodeHandle& h, bool or_self,
                           const NodeTestSpec& test, Sequence* out,
                           StructuralJoinStats* stats) {
  const NodeIdx lo = h.idx;
  const NodeIdx hi = h.doc->subtree_end(lo);
  ++stats->intervals_compared;
  for (NodeIdx n = or_self ? lo : lo + 1; n < hi; ++n) {
    NodeHandle d{h.doc, n};
    if (d.kind() == NodeKind::kAttribute && !(or_self && n == lo)) continue;
    if (NodeMatchesTest(d, test)) {
      out->push_back(Item(d));
      ++stats->emitted;
    }
  }
}

}  // namespace xqdb
