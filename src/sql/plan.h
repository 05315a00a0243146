#ifndef XQDB_SQL_PLAN_H_
#define XQDB_SQL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/static_types.h"
#include "index/xml_index.h"
#include "sql/sql_ast.h"

namespace xqdb {

/// How one base-table FROM item is accessed. Produced by the core planner
/// (core/planner.h) from the eligibility analysis; consumed by the
/// executor. The residual predicate (the full WHERE) is always re-applied,
/// so a chosen index only needs to satisfy Definition 1's pre-filtering
/// contract.
struct AccessPath {
  enum class Kind {
    kFullScan,        // no eligible index
    kIndexRange,      // one B+Tree range/equality probe
    kIndexIntersect,  // two probes ANDed (the §3.10 non-between shape)
    kIndexJoinProbe,  // per-outer-row equality probe (Tips 5/6)
    kSummaryExistence, // path-summary probe: admits the docs holding a path
    kIndexOnly,       // covering aggregate answered from B+Tree entries
  };

  /// kIndexOnly: which aggregate the entry scan computes.
  enum class IndexOnlyAgg { kNone, kCount, kSum, kAvg, kMin, kMax };
  Kind kind = Kind::kFullScan;
  const XmlIndex* index = nullptr;
  const XmlIndex* index2 = nullptr;  // kIndexIntersect second probe
  ProbeBound lo, hi;
  ProbeBound lo2, hi2;

  // kIndexJoinProbe: the outer-side key expression (borrowed from the
  // statement AST) and the embedded XQuery it came from (static context +
  // PASSING list for evaluating the key against the outer row).
  const Expr* join_key_expr = nullptr;
  const EmbeddedXQuery* join_source = nullptr;

  // kSummaryExistence: the compiled query-path automaton to run against
  // the path summary of the table's `summary_column`.
  std::shared_ptr<const PatternNfa> summary_nfa;
  std::string summary_column;
  std::string summary_path_text;

  // kIndexOnly: the covering aggregate and the query path it covers. The
  // plan is valid only while the index has zero tolerant cast skips (a
  // skipped node is a node the evaluator would see but the entry scan
  // would not); the executor re-verifies cast_skip_count() == 0 at
  // execution time — like kSummaryExistence, DML after planning can
  // invalidate the claim — and demotes to a collection scan otherwise.
  IndexOnlyAgg index_only_agg = IndexOnlyAgg::kNone;
  std::string index_only_path_text;

  /// Human-readable eligibility story for EXPLAIN: which predicates were
  /// found, which indexes were considered, and why each was (in)eligible.
  std::string summary;
  std::vector<std::string> notes;
};

/// One WHERE conjunct whose truth value the static type/cardinality
/// inference proved at plan time (analysis/static_types.h, DESIGN.md §13).
/// The executor drops the conjunct without evaluating it — after
/// re-verifying every emptiness witness against the live path summary
/// (DML may have inserted the "dead" path since the plan was cached);
/// a stale witness demotes the fold and the conjunct evaluates normally.
struct StaticFold {
  /// Borrowed from the statement AST — valid while the cached statement
  /// lives (CachedSqlQuery holds statement and plan together).
  const SqlExpr* conjunct = nullptr;
  bool value = false;  // the proven truth value
  /// True when this is the first top-level conjunct: only then may a false
  /// fold skip the whole statement (AND short-circuits left-to-right, so a
  /// false first conjunct means no later conjunct ever evaluates — folding
  /// cannot suppress an error a real execution would have raised).
  bool first_conjunct = false;
  /// Emptiness proofs backing a false fold. Empty for true folds: those
  /// come from DML-invariant type algebra and need no re-verification.
  std::vector<StaticEmptyWitness> witnesses;
  std::string description;  // EXPLAIN rendering
};

/// A full plan for one SELECT: an access path per FROM item (XMLTABLE items
/// get a default entry whose notes describe row-producer eligibility).
struct SelectPlan {
  std::vector<AccessPath> access;

  /// Conjuncts with statically proven truth values (empty when static
  /// folding is disabled).
  std::vector<StaticFold> folds;
  /// The whole statement provably returns zero rows: the first top-level
  /// conjunct folded to false and every FROM item is a base table (a scan
  /// cannot raise, so skipping it is unobservable). The executor still
  /// re-verifies the fold's witnesses before trusting this.
  bool static_empty = false;
  std::string static_reason;

  std::string Explain(const SelectStmt& stmt) const;
};

/// Plan for a standalone XQuery: at most one pre-filtering index probe on
/// the dominant xmlcolumn source (Definition 1).
struct XQueryPlan {
  bool use_index = false;
  std::string table;
  std::string column;
  AccessPath access;

  /// The body is statically empty-sequence() and cannot raise: execution
  /// may return the empty result without opening a document — after
  /// re-verifying `static_witnesses` against the live path summary. A
  /// stale witness demotes to the normal access path below (the same
  /// discipline as kSummaryExistence plans).
  bool static_empty = false;
  std::string static_reason;
  std::vector<StaticEmptyWitness> static_witnesses;

  std::string Explain() const;
};

}  // namespace xqdb

#endif  // XQDB_SQL_PLAN_H_
