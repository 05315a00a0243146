#ifndef XQDB_OBSERVABILITY_EXEC_STATS_H_
#define XQDB_OBSERVABILITY_EXEC_STATS_H_

#include <string>
#include <thread>

namespace xqdb {

/// Per-execution counters and phase timings. This is the runtime half of
/// EXPLAIN: the static plan says which access path was *chosen*, these
/// counters say what it actually *did* — an eligible index probe reports
/// `index_docs_returned == |matching docs|` while the ineligible
/// formulation of the same predicate reports `docs_scanned == |collection|`
/// (the paper's Definition 1 claim, pinned by numbers instead of timing).
///
/// Counters are plain (non-atomic) long longs: parallel scans give every
/// worker chunk a private ExecStats and Merge() them after the join, so no
/// counter is ever written concurrently and the disabled-tracing overhead
/// stays at an increment per event.
///
/// Every field is listed once, in exec_stats.cc's counter and timing
/// tables, which Merge, ToJson and Render walk; a static_assert there
/// fails the build when a field is added here without its table row.
struct ExecStats {
  // -- Access-path counters -----------------------------------------------
  long long rows_scanned = 0;         // base-table rows fetched (all paths)
  long long docs_scanned = 0;         // documents visited WITHOUT an index
                                      // pre-filter (full collection scans)
  long long index_entries_probed = 0; // B+Tree entries touched by probes
  long long index_docs_returned = 0;  // rows admitted by index probes
  long long rows_filtered = 0;        // rows rejected by the residual WHERE

  // -- Evaluation counters ------------------------------------------------
  long long xquery_evals = 0;         // embedded XQuery evaluations
  long long cast_failures = 0;        // tolerant cast skips (uncastable join
                                      // keys; build-time skips on DDL)
  long long nfa_matches = 0;          // Pattern-NFA node matches (DDL builds)
  long long pool_tasks = 0;           // thread-pool chunks this execution
                                      // dispatched (approximate under
                                      // concurrent queries)
  long long plan_cache_hits = 0;      // 1 if this execution reused a plan

  // -- Batch-execution counters (vectorized predicate kernels and covering
  // index-only plans; see DESIGN.md §12) -----------------------------------
  long long batches_executed = 0;     // ValueBatch kernel invocations
  long long batch_rows = 0;           // rows whose verdict came from a batch
                                      // kernel (not per-row EvalPredicate)
  long long index_only_rows = 0;      // B+Tree entries answered without
                                      // touching any document (kIndexOnly)

  // -- Structural-join counters (pre/post interval evaluation) -------------
  long long structural_join_emitted = 0;  // nodes emitted by merged-interval
                                          // axis scans
  long long intervals_compared = 0;       // interval containment / merge
                                          // comparisons performed
  long long summary_pruned_paths = 0;     // path-summary trie branches cut
                                          // during pattern matching

  // -- Static-folding counters (type/cardinality inference; DESIGN.md §13) -
  long long static_pruned_exprs = 0;      // predicates/bodies proven empty
                                          // at plan time and skipped whole
  long long static_folded_conjuncts = 0;  // proven-true WHERE conjuncts
                                          // dropped without evaluation

  // -- Phase timings (monotonic nanoseconds; 0 = phase skipped, e.g.
  // parse/plan on a plan-cache hit) ---------------------------------------
  long long parse_ns = 0;
  long long plan_ns = 0;
  long long exec_ns = 0;
  long long total_ns = 0;
  /// Thread CPU time of the exec phase: the calling thread's, plus every
  /// pool chunk that ran on another thread. Against exec_ns it shows what
  /// wall time hides: CPU above wall is parallelism, and CPU inflated under
  /// concurrency (cache-line traffic on a shared lock word) never blocks,
  /// so it shows up nowhere else.
  long long cpu_ns = 0;

  /// Folds a worker chunk's counters into this one (parallel scans keep
  /// per-chunk ExecStats and sum them after the join, so no counter is
  /// written concurrently).
  void Merge(const ExecStats& o);

  /// One-line JSON object (trace sink, xqdiff divergence reports,
  /// xqbench's report).
  std::string ToJson() const;

  /// Multi-line "  counter = value" block (EXPLAIN ANALYZE rendering).
  /// Zero-valued counters are elided; timings print in microseconds.
  std::string Render() const;
};

/// CPU time consumed so far by the calling thread (CLOCK_THREAD_CPUTIME_ID),
/// in nanoseconds.
long long ThreadCpuNs();

/// Scoped meter for one pool chunk: adds the chunk's thread CPU time to
/// `stats->cpu_ns`, unless the chunk runs on `caller` (ParallelFor lets the
/// calling thread help), whose own exec-phase CPU already covers it.
class ChunkCpuMeter {
 public:
  ChunkCpuMeter(ExecStats* stats, std::thread::id caller)
      : stats_(std::this_thread::get_id() == caller ? nullptr : stats),
        start_(stats_ == nullptr ? 0 : ThreadCpuNs()) {}
  ~ChunkCpuMeter() {
    if (stats_ != nullptr) stats_->cpu_ns += ThreadCpuNs() - start_;
  }
  ChunkCpuMeter(const ChunkCpuMeter&) = delete;
  ChunkCpuMeter& operator=(const ChunkCpuMeter&) = delete;

 private:
  ExecStats* stats_;
  long long start_;
};

}  // namespace xqdb

#endif  // XQDB_OBSERVABILITY_EXEC_STATS_H_
