#ifndef XQDB_CORE_EXEC_OPTIONS_H_
#define XQDB_CORE_EXEC_OPTIONS_H_

#include <cstdint>

namespace xqdb {

/// Per-execution knobs for plan forcing. The differential harness
/// (tools/xqdiff, src/testing/) uses these to pit the planner's chosen
/// access path against a forced collection scan and a cache hit against a
/// cold compile; they are also useful for ad-hoc "is the index wrong or
/// the query?" debugging.
struct ExecOptions {
  /// Downgrades every chosen access path to a full collection scan.
  /// Because the executor always re-applies the complete predicate
  /// (indexes only pre-filter, Definition 1), a forced scan is the
  /// ground-truth result the index plan must reproduce. Implies
  /// disable_cache: a forced plan must neither serve from nor pollute
  /// the compiled-query cache.
  bool force_scan = false;

  /// Bypasses the compiled-query cache entirely — no lookup, no insert.
  /// Every execution is a cold compile.
  bool disable_cache = false;

  /// Disables the structural-join (pre/post interval) axis evaluation for
  /// this execution, falling back to the recursive tree walk. This is the
  /// hook for the structural-vs-recursive differential oracle: both
  /// evaluations must produce identical results on every query.
  bool disable_structural = false;

  /// Disables batch-at-a-time (vectorized) predicate execution and covering
  /// index-only plans for this execution, falling back to row-at-a-time
  /// EvalPredicate and document evaluation. The hook for the batch-vs-row
  /// differential oracle: both executions must produce identical results on
  /// every query.
  bool disable_batch = false;

  /// Disables static type/cardinality folding for this execution: the
  /// planner neither prunes statically-false predicates to constant-empty
  /// plans nor drops proven-true conjuncts, and cached statically-folded
  /// plans are bypassed. The hook for the static-vs-unoptimized
  /// differential oracle: both executions must produce identical results on
  /// every query.
  bool disable_static = false;

  /// Emits a JSON QueryTrace record for this execution to the trace sink
  /// (observability/trace.h) even when the process-wide XQDB_TRACE switch
  /// is off. Counters and phase timings are collected either way; this only
  /// controls emission.
  bool trace = false;

  /// Read statements: evaluate against this already-pinned snapshot epoch
  /// instead of pinning one internally. 0 (the default) means "pin the
  /// current epoch for the duration of the statement". The caller passing
  /// a nonzero epoch must hold the pin (SnapshotHandle) across the call —
  /// this is how a server session keeps one consistent snapshot.
  uint64_t snapshot_epoch = 0;

  /// Serving-layer session identifier, carried into QueryTrace records
  /// (0 = not a session query; omitted from the trace JSON).
  uint64_t session_id = 0;
};

}  // namespace xqdb

#endif  // XQDB_CORE_EXEC_OPTIONS_H_
