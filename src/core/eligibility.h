#ifndef XQDB_CORE_ELIGIBILITY_H_
#define XQDB_CORE_ELIGIBILITY_H_

#include <string>
#include <vector>

#include "analysis/diag.h"
#include "core/predicate_extract.h"
#include "index/path_summary.h"
#include "index/xml_index.h"
#include "sql/plan.h"

namespace xqdb {

/// The verdict for one (index, predicate) pair, with the reason — the
/// paper's Definition 1 made executable. An ineligible verdict carries the
/// Definition 1 clause that rejected it as a stable diagnostic code
/// (XQL101 pattern containment, XQL102 type compatibility, XQL103
/// unbounded operator) so the planner trace, EXPLAIN, and xqlint all name
/// the same clause for the same rejection.
struct EligibilityVerdict {
  bool eligible = false;
  DiagCode code = DiagCode::kNone;
  std::string reason;
};

/// Checks whether `index` can answer `pred` — the one static verdict the
/// planner and xqlint both call:
///  1. Structural containment — every node the query path can match must be
///     in the index (PatternContains; covers §3.7 namespaces, §3.8 text()
///     alignment, §3.9 attribute axes).
///  2. Type compatibility (§3.1) — a double comparison needs a double
///     index (a varchar index cannot enforce numeric equality like
///     10E3 = 1000); a string comparison needs a varchar index (a double
///     index lacks the non-numeric values); temporal comparisons need the
///     matching temporal index. Structural predicates need a varchar index
///     (only it contains *all* matching nodes by definition, §2.2).
EligibilityVerdict CheckEligibility(const XmlIndex& index,
                                    const ExtractedPredicate& pred);

/// Chooses an access path for one table's XML column given its candidate
/// indexes and the extraction result: prefers a merged-between range, then
/// ANDing two value probes (§3.10), then a single value-predicate range,
/// then an equality join probe, then — when `summary` (the path summary of
/// `column`) is available — a summary-existence probe that answers "which
/// rows contain this path" from the DataGuide with zero documents scanned,
/// else full scan. A structural predicate is always answered by the
/// DataGuide, which admits exactly its holders; an eligible VARCHAR index
/// is named in the notes but not read. The summary/notes narrate every
/// considered index, eligible or not.
AccessPath ChooseAccessPath(const std::vector<const XmlIndex*>& indexes,
                            const ExtractionResult& extraction,
                            const PathSummary* summary = nullptr,
                            const std::string& column = {});

/// Covering (index-only) eligibility: true iff the index's entry set is
/// provably the query path's match set — pattern-language containment in
/// BOTH directions. One direction (index ⊇ query) is Definition 1's
/// pre-filter contract; the other (query ⊇ index) is what lets an
/// aggregate read B+Tree entries *instead of* documents: no indexed node
/// may lie outside the query path. Data-dependent residue (tolerantly
/// skipped uncastable/NaN nodes) is NOT checked here — executors gate on
/// XmlIndex::cast_skip_count() == 0 at run time.
bool IndexCoversExactly(const XmlIndex& index, const Pattern& query);

}  // namespace xqdb

#endif  // XQDB_CORE_ELIGIBILITY_H_
