#ifndef XQDB_ANALYSIS_STATIC_TYPES_H_
#define XQDB_ANALYSIS_STATIC_TYPES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/source_span.h"
#include "xpath/pattern_nfa.h"
#include "xquery/ast.h"

namespace xqdb {

class Catalog;

/// The inferred static type of one expression: cardinality bounds plus the
/// facts the consumers act on. The lattice is deliberately small — the
/// bounds [card_min, card_max] subsume the named XDM occurrence indicators
/// (empty = [0,0], exactly-one = [1,1], zero-or-one = [0,1], zero-or-more =
/// [0,∞], numeric-constant = [k,k] via fn:count folding).
struct StaticType {
  long long card_min = 0;
  long long card_max = -1;  // -1 = unbounded

  /// The expression's effective boolean value when it is statically known
  /// (and taking the EBV cannot raise). A general comparison against a
  /// provably empty sequence is `false`; fn:exists over a non-empty path
  /// is `true`.
  std::optional<bool> const_truth;

  /// Whether evaluating the expression can raise a dynamic error. Folding
  /// away an expression that can raise would change observable behaviour
  /// (the unoptimized run errors, the folded run returns rows), so every
  /// planner consumer requires !can_raise. Lint consumers do not.
  bool can_raise = true;

  /// Every item is known to be exactly one xs:boolean (EBV is identity).
  bool boolean_item = false;
  /// Every item is known to be a node (EBV of a non-empty sequence is
  /// true without FORG0006 risk).
  bool always_nodes = false;

  bool IsEmpty() const { return card_max == 0; }
  bool NonEmpty() const { return card_min >= 1; }

  /// "empty-sequence()", "exactly-one", "zero-or-one", "zero-or-more",
  /// or "exactly-N" for a folded constant cardinality.
  std::string CardinalityName() const;
};

/// An emptiness proof tied to the collection state it was made against:
/// the path pattern had no live occurrence in (table, column)'s DataGuide
/// at plan time. Execution re-verifies AnyPathMatches() == false against
/// the live summary before trusting the fold — DML may have inserted the
/// path since (the same staleness discipline as kSummaryExistence plans).
struct StaticEmptyWitness {
  std::string table;
  std::string column;
  std::string path_text;
  std::shared_ptr<const PatternNfa> nfa;
};

/// One finding the analyzer turns into a diagnostic (XQL016–XQL020).
struct StaticFact {
  enum class Kind {
    kEmptyPath,          // XQL016: path word has no live summary occurrence
    kImpossibleCast,     // XQL017: literal can never cast (FORG0001)
    kAlwaysFalseCompare, // XQL018: comparison false by type/cardinality
    kDeadBranch,         // XQL019: FLWOR/if branch statically unreachable
    kEmptyAggregate,     // XQL020: aggregate over a provably empty sequence
  };
  Kind kind = Kind::kEmptyPath;
  SourceSpan span;      // in the analyzed body's coordinates
  std::string detail;   // human message fragment (no code tag)
  std::string table;    // kEmptyPath: the collection the proof came from
  std::string column;
  std::string path_text;
  std::string suggestion;  // kEmptyPath: nearest live path, when close
  /// kEmptyPath on an empty collection is expected during loading, not a
  /// typo; the analyzer softens the message when this is false.
  bool collection_populated = false;
};

/// A variable bound to an XML column by the enclosing SQL statement
/// (PASSING clause) or by convention for standalone XQuery.
struct ColumnBinding {
  std::string var;  // without '$'
  std::string table;
  std::string column;
};

/// The result of one inference pass over a query body.
struct StaticQueryFacts {
  StaticType body_type;
  std::vector<StaticFact> facts;
  /// Emptiness witnesses supporting body_type.IsEmpty() (or a fold inside
  /// the body). Non-emptiness proofs come only from the type algebra and
  /// never from the summary, so they carry no witnesses by construction.
  std::vector<StaticEmptyWitness> witnesses;
};

/// Abstract interpretation over the XQuery AST: infers a cardinality-bound
/// static type for every expression, using the per-collection DataGuide
/// (Table::path_summary) as the type oracle for path steps — a step whose
/// path word has no live summary occurrence has static type
/// empty-sequence(). `catalog` may be null (raw xqlint mode): path facts
/// are then unavailable but the pure type algebra (dead branches,
/// impossible casts, empty-operand comparisons) still runs.
StaticQueryFacts InferStaticTypes(const Expr& body, const Catalog* catalog,
                                  const std::vector<ColumnBinding>& bindings);

/// Execution-time staleness gate: true when every witness's path still has
/// no live occurrence in its collection's summary. A false return means DML
/// invalidated at least one emptiness proof since the plan was made — the
/// caller must demote to the unfolded plan (results stay exact; only the
/// shortcut is lost). The summary answers for the current tree, so this is
/// a trie probe, never a document scan.
bool VerifyEmptyWitnesses(const Catalog& catalog,
                          const std::vector<StaticEmptyWitness>& witnesses);

}  // namespace xqdb

#endif  // XQDB_ANALYSIS_STATIC_TYPES_H_
