#ifndef XQDB_SQL_EXECUTOR_H_
#define XQDB_SQL_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "observability/exec_stats.h"
#include "sql/batch_filter.h"
#include "sql/plan.h"
#include "sql/schema.h"
#include "sql/sql_ast.h"
#include "storage/catalog.h"

namespace xqdb {

/// A materialized query result. Rows may reference nodes in table storage
/// and in `runtime` (documents constructed during evaluation), so the
/// ResultSet keeps the runtime alive.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;
  std::shared_ptr<QueryRuntime> runtime;
  ExecStats stats;

  /// Tabular rendering (tests and examples).
  std::string ToString(size_t max_rows = 20) const;
};

/// The row ids an access path admits, ascending and not yet filtered by
/// snapshot visibility; nullopt admits every row.
using AdmittedRows = std::optional<std::vector<uint32_t>>;

/// Stage 1 of row selection: the row ids `path` admits as a Definition 1
/// pre-filter (index range/intersection probes, path-summary existence
/// probes against the live DataGuide), metered into `stats`. Admits every
/// row for a full scan and for the kinds answered elsewhere
/// (kIndexJoinProbe probes per outer row, kIndexOnly is the standalone
/// XQuery covering gate).
Result<AdmittedRows> ProbeAccessPath(const Table& table,
                                     const AccessPath& path,
                                     ExecStats* stats);

/// Executes bound SELECT statements against the catalog, following the
/// access paths chosen by the planner. Joins are nested loops in FROM
/// order; XMLTABLE items are lateral. The full WHERE clause is re-applied
/// after index pre-filtering (indexes only need Definition 1's guarantee).
///
/// Row selection is one pipeline for SELECT and DELETE: the access path
/// picks candidate row ids (ProbeAccessPath, or per-outer-row join
/// probes), FilterRows applies WHERE to rows read in place — for a FROM of
/// one base table, the snapshot-visibility test runs in the same parallel
/// chunks — and the consumer either projects the survivors (Run) or
/// tombstones them (RunDelete).
///
/// Every row visit and every db2-fn:xmlcolumn resolution is gated on
/// `snapshot_epoch`: rows inserted after the snapshot, or deleted at or
/// before it, do not exist for this executor. The default kEpochLatest
/// sees all live rows (single-session behaviour).
class SqlExecutor {
 public:
  explicit SqlExecutor(Catalog* catalog,
                       uint64_t snapshot_epoch = kEpochLatest)
      : catalog_(catalog), snapshot_epoch_(snapshot_epoch),
        snapshot_provider_(catalog, snapshot_epoch) {}

  /// Off evaluates every axis step by recursive tree walk instead of
  /// interval structural joins (ExecOptions::disable_structural).
  void set_structural_enabled(bool enabled) { structural_enabled_ = enabled; }

  /// Off forces row-at-a-time EvalPredicate for every WHERE conjunct
  /// (ExecOptions::disable_batch) — the batch-vs-row oracle's ground truth.
  void set_batch_enabled(bool enabled) { batch_enabled_ = enabled; }

  /// Off, the executor ignores the plan's StaticFold entries and STATIC
  /// EMPTY marking and evaluates every conjunct (ExecOptions::
  /// disable_static) — the static-vs-unoptimized oracle's ground truth.
  void set_static_enabled(bool enabled) { static_enabled_ = enabled; }

  Result<ResultSet> Run(const SelectStmt& stmt, const SelectPlan& plan);

  /// DELETE FROM t [WHERE c]: `victims` is the statement's `SELECT * FROM
  /// t [WHERE c]` (the parser's form of a DELETE) and `plan` its plan. The
  /// rows that query selects at this executor's snapshot are tombstoned at
  /// `write_epoch` (physical index maintenance is deferred until no pinned
  /// snapshot can see them); none is stamped if selection fails. The
  /// result carries the selection's counters, exactly as the same SELECT
  /// reports them: the deleted count is rows_scanned − rows_filtered.
  Result<ResultSet> RunDelete(const SelectStmt& victims,
                              const SelectPlan& plan, uint64_t write_epoch);

 private:
  using Row = std::vector<SqlValue>;

  /// The output of the first two stages: the FROM-product rows that pass
  /// WHERE, in order, read in place.
  struct Selection {
    std::vector<ColumnSlot> schema;
    /// Point into table storage for a FROM of one base table, into
    /// `built` for join, XMLTABLE and VALUES products.
    RowRefs rows;
    std::vector<Row> built;
    /// For a FROM of one base table: the table row id of each of `rows`.
    std::vector<uint32_t> row_ids;
  };

  /// Stage 2's candidates, fetched chunk by chunk: fetch(lo, hi, &rows,
  /// &ids, stats) appends the candidates at positions [lo, hi) that exist
  /// at this snapshot, each with an id (its table row id, where it has
  /// one), and meters the rows it visits.
  using RowFetch =
      std::function<void(size_t lo, size_t hi, RowRefs* rows,
                         std::vector<uint32_t>* ids, ExecStats* stats)>;

  /// Stages 1 and 2: installs the plan's verified static folds, walks the
  /// FROM list through each item's access path, and filters with WHERE.
  Status Select(const SelectStmt& stmt, const SelectPlan& plan,
                QueryRuntime* runtime, ExecStats* stats, Selection* out);

  /// kIndexJoinProbe for one outer row: evaluates the outer join key
  /// against `base` and probes the inner index with it. Admits every inner
  /// row when the key cannot be computed; the residual WHERE keeps the
  /// result exact.
  Result<AdmittedRows> ProbeJoinKey(
      const AccessPath& path, const std::vector<ColumnSlot>& base_schema,
      const Row& base, QueryRuntime* runtime, ExecStats* stats);

  Result<SqlValue> EvalScalar(const SqlExpr& e,
                              const std::vector<ColumnSlot>& schema,
                              const std::vector<SqlValue>& row,
                              QueryRuntime* runtime, ExecStats* stats);
  Result<bool> EvalPredicate(const SqlExpr& e,
                             const std::vector<ColumnSlot>& schema,
                             const std::vector<SqlValue>& row,
                             QueryRuntime* runtime, ExecStats* stats);
  Result<Sequence> EvalEmbeddedXQuery(const EmbeddedXQuery& q,
                                      const std::vector<ColumnSlot>& schema,
                                      const std::vector<SqlValue>& row,
                                      QueryRuntime* runtime,
                                      ExecStats* stats);
  Result<SqlValue> XmlCastValue(const Sequence& seq, SqlType type, int len);

  /// Stage 2: fetches `count` candidates and appends those that pass
  /// `where` (every one when it is nullptr) to `kept_rows`, with their
  /// ids in `kept_ids`, preserving order. Fans the fetch and the per-row
  /// predicate evaluation out to the global thread pool when the
  /// candidate count warrants it; each worker chunk gets a private
  /// QueryRuntime and ExecStats (summed into `stats` after the join).
  Status FilterRows(const SqlExpr* where,
                    const std::vector<ColumnSlot>& schema, size_t count,
                    const RowFetch& fetch, QueryRuntime* runtime,
                    ExecStats* stats, RowRefs* kept_rows,
                    std::vector<uint32_t>* kept_ids);

  /// Row-at-a-time predicate pass over one chunk's rows: the exact
  /// reference path. Appends the indexes of surviving rows to `kept`,
  /// counts rows_filtered.
  Status FilterChunkRows(const SqlExpr& where,
                         const std::vector<ColumnSlot>& schema,
                         const RowRefs& rows, QueryRuntime* runtime,
                         ExecStats* stats, std::vector<uint32_t>* kept);

  /// Batch-at-a-time predicate pass over one chunk's rows: conjuncts
  /// execute left-to-right over a narrowing selection vector; vectorized
  /// conjuncts run their kernel (fallback rows re-evaluated exactly),
  /// residual conjuncts evaluate per surviving row. Survivors, counter
  /// totals and the first-error choice match FilterChunkRows on every
  /// input.
  Status FilterChunkBatch(const BatchProgram& program,
                          const std::vector<ColumnSlot>& schema,
                          const RowRefs& rows, QueryRuntime* runtime,
                          ExecStats* stats, std::vector<uint32_t>* kept);

  /// Converts a PASSING argument to an XQuery sequence with the SQL type
  /// mapped to the corresponding XML Schema type (paper §3.3: "$pid
  /// inherits its subtype from the SQL side").
  static Result<Sequence> PassingToSequence(const SqlValue& v);

  Catalog* catalog_;
  uint64_t snapshot_epoch_;
  SnapshotProvider snapshot_provider_;
  bool structural_enabled_ = true;
  bool batch_enabled_ = true;
  bool static_enabled_ = true;
  /// Verified static folds for the statement being executed: conjunct →
  /// proven truth value. Filled once at the top of Select() (after the
  /// witness re-verification) and read-only afterwards, so the parallel
  /// FilterRows chunks share it without synchronization.
  std::map<const SqlExpr*, bool> static_folds_;
};

}  // namespace xqdb

#endif  // XQDB_SQL_EXECUTOR_H_
