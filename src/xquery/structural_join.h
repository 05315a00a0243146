#ifndef XQDB_XQUERY_STRUCTURAL_JOIN_H_
#define XQDB_XQUERY_STRUCTURAL_JOIN_H_

#include <vector>

#include "xdm/item.h"
#include "xml/document.h"
#include "xquery/ast.h"

namespace xqdb {

/// Work counters for one structural-join evaluation, merged into the
/// execution's ExecStats by the caller.
struct StructuralJoinStats {
  long long intervals_compared = 0;
  long long emitted = 0;
};

/// Sort-merge structural join for the descendant / descendant-or-self
/// axes. Takes the step's context nodes (any order), sorts them into
/// document order, merges nested/duplicate subtree intervals into disjoint
/// runs, and emits every node inside the union that passes `test` with one
/// linear scan per run over the contiguous node array — no recursion, no
/// per-context rescans of shared subtrees.
///
/// Attribute nodes sit inside their element's interval but are not
/// descendants, so they are skipped — except that with `or_self` an
/// attribute *context* emits itself (descendant-or-self::node() on an
/// attribute is the attribute).
///
/// The result is in document order and duplicate-free by construction.
Sequence StructuralDescendantJoin(std::vector<NodeHandle> contexts,
                                  bool or_self, const NodeTestSpec& test,
                                  StructuralJoinStats* stats);

/// Single-context interval scan (the predicate-carrying variant, where
/// candidates must stay grouped per context node for positional predicate
/// semantics): appends the subtree of `h` in document order using the
/// pre/post interval, iteratively.
void AppendSubtreeInterval(const NodeHandle& h, bool or_self,
                           const NodeTestSpec& test, Sequence* out,
                           StructuralJoinStats* stats);

}  // namespace xqdb

#endif  // XQDB_XQUERY_STRUCTURAL_JOIN_H_
