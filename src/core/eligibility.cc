#include "core/eligibility.h"

#include <set>

#include "xpath/containment.h"

namespace xqdb {

namespace {

/// Index type required for a comparison type, or kVarchar for structural.
/// On failure, fills the verdict's reason and Definition 1 clause code.
bool TypeCompatible(IndexValueType index_type, const ExtractedPredicate& pred,
                    EligibilityVerdict* verdict) {
  std::string* why_not = &verdict->reason;
  if (!pred.has_value) {
    if (index_type != IndexValueType::kVarchar) {
      verdict->code = DiagCode::kXQL102_TypeMismatch;
      *why_not =
          "structural predicate needs a VARCHAR index (only it contains all "
          "matching nodes regardless of value, §2.2)";
      return false;
    }
    return true;
  }
  if (pred.op == CompareOp::kNe && index_type != IndexValueType::kVarchar) {
    // '!=' is not a range: the only probe that can serve it is "every
    // document with a matching node" — and a typed index does not contain
    // the nodes that fail the tolerant cast (nor NaN, which '!=' *does*
    // select: NaN != x is true). Only a VARCHAR index holds every matching
    // node (§2.2), so only it can pre-filter '!=' without dropping rows.
    verdict->code = DiagCode::kXQL103_OperatorUnbounded;
    *why_not =
        "'!=' predicate: a " + std::string(IndexValueTypeName(index_type)) +
        " index omits non-castable and NaN values, which '!=' selects — "
        "only a VARCHAR index contains every matching node (Def. 1)";
    return false;
  }
  verdict->code = DiagCode::kXQL102_TypeMismatch;
  switch (pred.comparison_type) {
    case AtomicType::kDouble:
      if (index_type != IndexValueType::kDouble) {
        *why_not =
            "numeric comparison: a " +
            std::string(IndexValueTypeName(index_type)) +
            " index cannot enforce numeric comparison rules (e.g. 10E3 = "
            "1000) and may order values differently (§3.1)";
        return false;
      }
      break;
    case AtomicType::kString:
      if (index_type != IndexValueType::kVarchar) {
        *why_not =
            "string comparison: a " +
            std::string(IndexValueTypeName(index_type)) +
            " index does not contain non-numeric values such as '20 USD' "
            "(§3.1, Query 3)";
        return false;
      }
      break;
    case AtomicType::kDate:
      if (index_type != IndexValueType::kDate) {
        *why_not = "date comparison requires a DATE index";
        return false;
      }
      break;
    case AtomicType::kDateTime:
      if (index_type != IndexValueType::kTimestamp) {
        *why_not = "dateTime comparison requires a TIMESTAMP index";
        return false;
      }
      break;
    default:
      *why_not = "unsupported comparison type";
      return false;
  }
  verdict->code = DiagCode::kNone;
  return true;
}

/// Converts one comparison op + constant into probe bounds.
void OpToBounds(CompareOp op, const AtomicValue& constant, ProbeBound* lo,
                ProbeBound* hi) {
  switch (op) {
    case CompareOp::kEq:
      *lo = ProbeBound{constant, true};
      *hi = ProbeBound{constant, true};
      break;
    case CompareOp::kGt:
      *lo = ProbeBound{constant, false};
      break;
    case CompareOp::kGe:
      *lo = ProbeBound{constant, true};
      break;
    case CompareOp::kLt:
      *hi = ProbeBound{constant, false};
      break;
    case CompareOp::kLe:
      *hi = ProbeBound{constant, true};
      break;
    case CompareOp::kNe:
      // != cannot be a single range; leave unbounded (structural-ish).
      break;
  }
}

}  // namespace

EligibilityVerdict CheckEligibility(const XmlIndex& index,
                                    const ExtractedPredicate& pred) {
  EligibilityVerdict verdict;
  auto contains = PatternContains(index.pattern(), pred.path);
  if (!contains.ok()) {
    verdict.code = DiagCode::kXQL101_PatternMismatch;
    verdict.reason = "containment check failed: " +
                     contains.status().ToString();
    return verdict;
  }
  if (!contains.value()) {
    verdict.code = DiagCode::kXQL101_PatternMismatch;
    verdict.reason =
        "index pattern '" + index.pattern().source_text +
        "' does not contain the query path " + pred.path_text +
        " — some qualifying nodes would be missing from the index (Def. 1)";
    return verdict;
  }
  if (!TypeCompatible(index.type(), pred, &verdict)) {
    return verdict;
  }
  verdict.eligible = true;
  verdict.reason = "pattern contains " + pred.path_text + "; " +
                   std::string(IndexValueTypeName(index.type())) +
                   " index matches the comparison type";
  return verdict;
}

namespace {

/// Removes duplicate notes while preserving first-occurrence order.
void DedupNotes(std::vector<std::string>* notes) {
  std::set<std::string> seen;
  std::vector<std::string> unique;
  for (auto& note : *notes) {
    if (seen.insert(note).second) unique.push_back(std::move(note));
  }
  *notes = std::move(unique);
}

}  // namespace

/// Last resort before a full scan when the collection has a path summary:
/// answer "which rows contain this path" from the DataGuide, which admits
/// exactly the documents holding the path; the residual query then
/// evaluates each admitted document. Works with zero indexes defined and
/// — because the summary is maintained transactionally with DML — is
/// consulted at execution time, so cached plans never go stale. Probes
/// `indexed` first: a structural predicate some VARCHAR index is eligible
/// for, whose holders the DataGuide admits exactly (the index would admit
/// every holder of its own, possibly wider, pattern). Returns false if no
/// extracted predicate's path compiles to an automaton.
bool TrySummaryExistence(const ExtractionResult& extraction,
                         const PathSummary* summary, const std::string& column,
                         const ExtractedPredicate* indexed,
                         AccessPath* path) {
  if (summary == nullptr) return false;
  auto probe = [&](const ExtractedPredicate& pred) {
    auto nfa = PatternNfa::Compile(pred.path);
    if (!nfa.ok()) return false;
    path->kind = AccessPath::Kind::kSummaryExistence;
    path->summary_nfa =
        std::make_shared<const PatternNfa>(*std::move(nfa));
    path->summary_column = column;
    path->summary_path_text = pred.path_text;
    path->summary = "path-summary existence probe for " + pred.description +
                    (indexed == nullptr ? " (no eligible index)" : "");
    // Only a structural predicate is answered by the probe itself (the
    // rule xqlint's XQL015 applies); a value comparison still reads every
    // admitted document.
    if (!pred.has_value) {
      path->notes.push_back(
          DiagTag(DiagCode::kXQL015_SummaryAnswerable) + "existence of " +
          pred.path_text +
          " is answerable from the collection's path summary alone: the "
          "DataGuide admits exactly the documents that hold it");
    }
    return true;
  };
  if (indexed != nullptr && probe(*indexed)) return true;
  for (const ExtractedPredicate& pred : extraction.predicates) {
    if (probe(pred)) return true;
  }
  return false;
}

AccessPath ChooseAccessPathImpl(const std::vector<const XmlIndex*>& indexes,
                                const ExtractionResult& extraction,
                                const PathSummary* summary,
                                const std::string& column) {
  AccessPath path;
  path.notes = extraction.notes;

  if (extraction.predicates.empty()) {
    path.summary = "no filtering predicates found";
    return path;
  }
  if (indexes.empty()) {
    if (TrySummaryExistence(extraction, summary, column, nullptr, &path)) {
      return path;
    }
    path.summary = "no XML indexes defined on this column";
    return path;
  }

  struct Choice {
    const XmlIndex* index;
    const ExtractedPredicate* pred;
  };
  std::vector<Choice> value_choices;
  // The first structural predicate with an eligible index: the DataGuide
  // probe below answers it, so the index itself is never read.
  const ExtractedPredicate* indexed_structural = nullptr;

  for (const ExtractedPredicate& pred : extraction.predicates) {
    for (const XmlIndex* index : indexes) {
      EligibilityVerdict verdict = CheckEligibility(*index, pred);
      if (verdict.eligible) {
        if (pred.has_value) {
          value_choices.push_back(Choice{index, &pred});
        } else if (indexed_structural == nullptr) {
          indexed_structural = &pred;
        }
        path.notes.push_back("eligible: " + index->name() + " for " +
                             pred.description);
        break;
      }
      path.notes.push_back(DiagTag(verdict.code) + "ineligible: " +
                           index->name() + " for " + pred.description +
                           " — " + verdict.reason);
    }
  }

  // Cost model (in the spirit of the paper's reference [2], cost-based
  // optimization in DB2 XML): a probe whose estimated range covers most of
  // the index is worse than a collection scan — the probe reads nearly all
  // entries AND navigates nearly all documents. The estimate comes from a
  // cheap uniform-fanout B+Tree rank descent; it only overrides eligibility
  // on indexes big enough for the estimate to mean something.
  constexpr size_t kCostMinEntries = 1000;
  constexpr double kScanThreshold = 0.5;
  auto prefer_scan = [&](const XmlIndex* index, const ProbeBound& lo,
                         const ProbeBound& hi) {
    if (index->entry_count() < kCostMinEntries) return false;
    double frac = index->EstimateRangeFraction(lo, hi);
    if (frac <= kScanThreshold) {
      path.notes.push_back(
          "cost: estimated selectivity of " + index->name() + " probe is " +
          std::to_string(static_cast<int>(frac * 100)) + "%");
      return false;
    }
    path.notes.push_back(
        "cost: " + index->name() + " probe would read ~" +
        std::to_string(static_cast<int>(frac * 100)) +
        "% of the index — collection scan is cheaper (cost-based "
        "decision)");
    return true;
  };

  // Preference 1: a merged between or any single value predicate.
  for (const Choice& choice : value_choices) {
    if (choice.pred->has_second) {
      path.kind = AccessPath::Kind::kIndexRange;
      path.index = choice.index;
      OpToBounds(choice.pred->op, choice.pred->constant, &path.lo, &path.hi);
      OpToBounds(choice.pred->op2, choice.pred->constant2, &path.lo,
                 &path.hi);
      if (prefer_scan(choice.index, path.lo, path.hi)) {
        std::vector<std::string> notes = std::move(path.notes);
        path = AccessPath{};
        path.notes = std::move(notes);
        path.summary = "cost-based collection scan (probe not selective)";
        return path;
      }
      path.summary = "single range scan (between) on " + choice.index->name();
      return path;
    }
  }
  if (value_choices.size() >= 2) {
    // Two probes ANDed (§3.10's fallback when singletons can't be proven).
    path.kind = AccessPath::Kind::kIndexIntersect;
    path.index = value_choices[0].index;
    OpToBounds(value_choices[0].pred->op, value_choices[0].pred->constant,
               &path.lo, &path.hi);
    path.index2 = value_choices[1].index;
    OpToBounds(value_choices[1].pred->op, value_choices[1].pred->constant,
               &path.lo2, &path.hi2);
    path.summary = "two index scans ANDed (no singleton guarantee — cannot "
                   "merge into a between, §3.10)";
    return path;
  }
  if (value_choices.size() == 1) {
    path.kind = AccessPath::Kind::kIndexRange;
    path.index = value_choices[0].index;
    OpToBounds(value_choices[0].pred->op, value_choices[0].pred->constant,
               &path.lo, &path.hi);
    if (prefer_scan(value_choices[0].index, path.lo, path.hi)) {
      std::vector<std::string> notes = std::move(path.notes);
      path = AccessPath{};
      path.notes = std::move(notes);
      path.summary = "cost-based collection scan (probe not selective)";
      return path;
    }
    path.summary = "index range scan on " + path.index->name() + " for " +
                   value_choices[0].pred->description;
    return path;
  }
  // Equality join candidates: probe the index once per outer row (Tips
  // 5/6). Preferred over the existence probe — an equality probe touches
  // only matching entries.
  for (const JoinCandidate& join : extraction.joins) {
    // Only candidates the planner validated (source set: the outer side is
    // computable before this table joins) can be executed as probes.
    if (join.outer_expr == nullptr || join.source == nullptr) continue;
    for (const XmlIndex* index : indexes) {
      ExtractedPredicate as_pred;
      as_pred.path = join.inner_path;
      as_pred.path_text = join.inner_path_text;
      as_pred.has_value = true;
      as_pred.op = CompareOp::kEq;
      as_pred.comparison_type = join.comparison_type;
      EligibilityVerdict verdict = CheckEligibility(*index, as_pred);
      if (!verdict.eligible) {
        path.notes.push_back(DiagTag(verdict.code) + "ineligible (join): " +
                             index->name() + " for " + join.description +
                             " — " + verdict.reason);
        continue;
      }
      path.kind = AccessPath::Kind::kIndexJoinProbe;
      path.index = index;
      path.join_key_expr = join.outer_expr;
      path.join_source = join.source;
      path.summary = "index nested-loop join probe on " + index->name() +
                     " for " + join.description;
      path.notes.push_back("eligible (join): " + index->name() + " for " +
                           join.description);
      return path;
    }
  }
  if (TrySummaryExistence(extraction, summary, column, indexed_structural,
                          &path)) {
    return path;
  }
  path.summary = "predicates found but no eligible index";
  return path;
}

AccessPath ChooseAccessPath(const std::vector<const XmlIndex*>& indexes,
                            const ExtractionResult& extraction,
                            const PathSummary* summary,
                            const std::string& column) {
  AccessPath path = ChooseAccessPathImpl(indexes, extraction, summary, column);
  DedupNotes(&path.notes);
  return path;
}

bool IndexCoversExactly(const XmlIndex& index, const Pattern& query) {
  // Language equality, both directions of Definition 1's containment: every
  // node the query can match is indexed (the usual pre-filter direction)
  // AND every indexed node is a query match (the covering direction — an
  // extra entry would add a value the query never produces). Either
  // direction failing to *decide* is a rejection, not an error: the plan
  // simply stays a scan.
  auto forward = PatternContains(index.pattern(), query);
  if (!forward.ok() || !forward.value()) return false;
  auto backward = PatternContains(query, index.pattern());
  return backward.ok() && backward.value();
}

}  // namespace xqdb
