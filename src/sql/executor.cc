#include "sql/executor.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "analysis/static_types.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "xdm/cast.h"
#include "xquery/evaluator.h"

namespace xqdb {

namespace {

/// Below this many rows the chunk bookkeeping of a parallel predicate pass
/// costs more than the evaluation it spreads out.
constexpr size_t kParallelRowThreshold = 64;

/// Chunk size for per-row predicate evaluation: small enough to balance
/// skewed documents across workers, large enough to amortize dispatch.
size_t PredicateGrain(size_t n, size_t threads) {
  size_t ways = std::max<size_t>(1, threads) * 4;
  return std::max<size_t>(16, (n + ways - 1) / ways);
}

}  // namespace

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += " | ";
      out += rows[r][c].ToDisplayString();
    }
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

Result<Sequence> SqlExecutor::PassingToSequence(const SqlValue& v) {
  switch (v.kind()) {
    case SqlValue::Kind::kNull:
      return Sequence{};
    case SqlValue::Kind::kInteger:
      return Sequence{Item(AtomicValue::Integer(v.integer_value()))};
    case SqlValue::Kind::kDouble:
      return Sequence{Item(AtomicValue::Double(v.double_value()))};
    case SqlValue::Kind::kVarchar:
      return Sequence{Item(AtomicValue::String(v.varchar_value()))};
    case SqlValue::Kind::kXml:
      return v.xml_value();
  }
  return Status::Internal("unhandled SqlValue kind");
}

Result<Sequence> SqlExecutor::EvalEmbeddedXQuery(
    const EmbeddedXQuery& q, const std::vector<ColumnSlot>& schema,
    const std::vector<SqlValue>& row, QueryRuntime* runtime,
    ExecStats* stats) {
  Evaluator eval(&q.parsed.static_context, &snapshot_provider_, runtime);
  eval.set_structural_enabled(structural_enabled_);
  eval.set_stats(stats);
  for (const PassingArg& arg : q.passing) {
    XQDB_ASSIGN_OR_RETURN(SqlValue v,
                          EvalScalar(*arg.value, schema, row, runtime, stats));
    XQDB_ASSIGN_OR_RETURN(Sequence seq, PassingToSequence(v));
    eval.BindVariable(arg.var_name, std::move(seq));
  }
  if (stats != nullptr) ++stats->xquery_evals;
  return eval.Eval(*q.parsed.body);
}

Result<SqlValue> SqlExecutor::XmlCastValue(const Sequence& seq, SqlType type,
                                           int len) {
  if (seq.empty()) return SqlValue::Null();
  if (seq.size() > 1) {
    // The paper's Query 14 pitfall: XMLCAST insists on a singleton.
    return Status::TypeError(
        "XMLCAST requires a sequence of at most one item (got " +
        std::to_string(seq.size()) + ")");
  }
  XQDB_ASSIGN_OR_RETURN(Sequence atoms, Atomize(seq));
  const AtomicValue& v = atoms[0].atomic();
  switch (type) {
    case SqlType::kVarchar: {
      XQDB_ASSIGN_OR_RETURN(AtomicValue s, CastTo(v, AtomicType::kString));
      if (len > 0 &&
          s.string_value().size() > static_cast<size_t>(len)) {
        // Query 14's second failure mode: the value does not fit the
        // declared VARCHAR length.
        return Status::CastError("value '" + s.string_value() +
                                 "' exceeds VARCHAR(" + std::to_string(len) +
                                 ")");
      }
      return SqlValue::Varchar(s.string_value());
    }
    case SqlType::kDouble:
    case SqlType::kDecimal: {
      XQDB_ASSIGN_OR_RETURN(AtomicValue d, CastTo(v, AtomicType::kDouble));
      return SqlValue::Double(d.double_value());
    }
    case SqlType::kInteger: {
      XQDB_ASSIGN_OR_RETURN(AtomicValue i, CastTo(v, AtomicType::kInteger));
      return SqlValue::Integer(i.integer_value());
    }
    case SqlType::kXml:
      return SqlValue::Xml(seq);
  }
  return Status::Internal("unhandled XMLCAST target");
}

Result<SqlValue> SqlExecutor::EvalScalar(const SqlExpr& e,
                                         const std::vector<ColumnSlot>& schema,
                                         const std::vector<SqlValue>& row,
                                         QueryRuntime* runtime,
                                         ExecStats* stats) {
  switch (e.kind) {
    case SqlExprKind::kLiteral:
      return e.literal;
    case SqlExprKind::kColumnRef: {
      const int slot = FindColumnSlot(schema, e.qualifier, e.column);
      if (slot == kColumnAmbiguous) {
        return Status::InvalidArgument("ambiguous column reference " +
                                       e.column);
      }
      if (slot == kColumnMissing) {
        return Status::NotFound("column " +
                                (e.qualifier.empty()
                                     ? e.column
                                     : e.qualifier + "." + e.column) +
                                " not found");
      }
      return row[static_cast<size_t>(slot)];
    }
    case SqlExprKind::kXmlQuery: {
      XQDB_ASSIGN_OR_RETURN(
          Sequence seq, EvalEmbeddedXQuery(*e.xquery, schema, row, runtime,
                                           stats));
      return SqlValue::Xml(std::move(seq));
    }
    case SqlExprKind::kXmlCast: {
      XQDB_ASSIGN_OR_RETURN(
          SqlValue inner,
          EvalScalar(*e.children[0], schema, row, runtime, stats));
      if (inner.kind() != SqlValue::Kind::kXml) {
        return Status::TypeError("XMLCAST requires an XML operand");
      }
      return XmlCastValue(inner.xml_value(), e.cast_type, e.cast_len);
    }
    case SqlExprKind::kXmlExists: {
      XQDB_ASSIGN_OR_RETURN(bool b,
                            EvalPredicate(e, schema, row, runtime, stats));
      return SqlValue::Integer(b ? 1 : 0);
    }
    case SqlExprKind::kCompare:
    case SqlExprKind::kAnd:
    case SqlExprKind::kOr:
    case SqlExprKind::kNot:
    case SqlExprKind::kIsNull: {
      XQDB_ASSIGN_OR_RETURN(bool b,
                            EvalPredicate(e, schema, row, runtime, stats));
      return SqlValue::Integer(b ? 1 : 0);
    }
  }
  return Status::Internal("unhandled SQL expression kind");
}

Result<bool> SqlExecutor::EvalPredicate(const SqlExpr& e,
                                        const std::vector<ColumnSlot>& schema,
                                        const std::vector<SqlValue>& row,
                                        QueryRuntime* runtime,
                                        ExecStats* stats) {
  // A conjunct whose truth value the planner proved (and Run() re-verified
  // against the live summary) returns its constant without evaluation.
  if (!static_folds_.empty()) {
    auto fold = static_folds_.find(&e);
    if (fold != static_folds_.end()) return fold->second;
  }
  switch (e.kind) {
    case SqlExprKind::kAnd: {
      XQDB_ASSIGN_OR_RETURN(
          bool a, EvalPredicate(*e.children[0], schema, row, runtime, stats));
      if (!a) return false;
      return EvalPredicate(*e.children[1], schema, row, runtime, stats);
    }
    case SqlExprKind::kOr: {
      XQDB_ASSIGN_OR_RETURN(
          bool a, EvalPredicate(*e.children[0], schema, row, runtime, stats));
      if (a) return true;
      return EvalPredicate(*e.children[1], schema, row, runtime, stats);
    }
    case SqlExprKind::kNot: {
      XQDB_ASSIGN_OR_RETURN(
          bool a, EvalPredicate(*e.children[0], schema, row, runtime, stats));
      return !a;
    }
    case SqlExprKind::kIsNull: {
      XQDB_ASSIGN_OR_RETURN(
          SqlValue v,
          EvalScalar(*e.children[0], schema, row, runtime, stats));
      bool is_null = v.is_null();
      return e.is_null_negated ? !is_null : is_null;
    }
    case SqlExprKind::kCompare: {
      XQDB_ASSIGN_OR_RETURN(
          SqlValue a, EvalScalar(*e.children[0], schema, row, runtime, stats));
      XQDB_ASSIGN_OR_RETURN(
          SqlValue b, EvalScalar(*e.children[1], schema, row, runtime, stats));
      if (a.is_null() || b.is_null()) return false;  // UNKNOWN → filtered
      XQDB_ASSIGN_OR_RETURN(int c, SqlValue::Compare(a, b));
      switch (e.cmp_op) {
        case CompareOp::kEq:
          return c == 0;
        case CompareOp::kNe:
          return c != 0;
        case CompareOp::kLt:
          return c < 0;
        case CompareOp::kLe:
          return c <= 0;
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGe:
          return c >= 0;
      }
      return false;
    }
    case SqlExprKind::kXmlExists: {
      // XMLEXISTS: true iff the XQuery result is non-empty. A boolean
      // result item is still one item — XMLEXISTS('... > 100') is the Q9
      // trap that returns every row.
      XQDB_ASSIGN_OR_RETURN(
          Sequence seq, EvalEmbeddedXQuery(*e.xquery, schema, row, runtime,
                                           stats));
      return !seq.empty();
    }
    default: {
      XQDB_ASSIGN_OR_RETURN(SqlValue v,
                            EvalScalar(e, schema, row, runtime, stats));
      if (v.is_null()) return false;
      if (v.kind() == SqlValue::Kind::kInteger) return v.integer_value() != 0;
      return Status::TypeError("expression is not a predicate");
    }
  }
}

Status SqlExecutor::FilterChunkRows(const SqlExpr& where,
                                    const std::vector<ColumnSlot>& schema,
                                    const RowRefs& rows,
                                    QueryRuntime* runtime, ExecStats* stats,
                                    std::vector<uint32_t>* kept) {
  for (size_t i = 0; i < rows.size(); ++i) {
    XQDB_ASSIGN_OR_RETURN(
        bool b, EvalPredicate(where, schema, *rows[i], runtime, stats));
    if (b) {
      kept->push_back(static_cast<uint32_t>(i));
    } else {
      ++stats->rows_filtered;
    }
  }
  return Status::OK();
}

Status SqlExecutor::FilterChunkBatch(const BatchProgram& program,
                                     const std::vector<ColumnSlot>& schema,
                                     const RowRefs& rows,
                                     QueryRuntime* runtime, ExecStats* stats,
                                     std::vector<uint32_t>* kept) {
  const size_t n = rows.size();
  // Selection vector of surviving row indices, ascending. Conjuncts narrow
  // it left-to-right, which reproduces row-at-a-time AND short-circuit: a
  // row rejected by conjunct i never evaluates conjunct i+1.
  std::vector<uint32_t> sel;
  sel.reserve(n);
  for (size_t i = 0; i < n; ++i) sel.push_back(static_cast<uint32_t>(i));

  // Conjunct-major evaluation surfaces errors in a different order than
  // row-major evaluation, so errors are collected instead of returned
  // eagerly: a row errors here iff it errors row-at-a-time (it reaches the
  // erroring conjunct iff it survived the earlier ones), and the lowest
  // erroring row is exactly the row the row-at-a-time pass stops at.
  size_t error_row = n;
  Status error = Status::OK();

  ValueBatch scratch;
  std::vector<uint8_t> verdicts;
  std::vector<uint32_t> next;
  for (const BatchStep& step : program.steps) {
    if (sel.empty()) break;
    // Statically folded conjunct: constant verdict for every row, no kernel
    // and no per-row evaluation — mirrors the EvalPredicate fast path.
    if (!static_folds_.empty()) {
      auto fold = static_folds_.find(step.conjunct);
      if (fold != static_folds_.end()) {
        if (!fold->second) sel.clear();
        continue;
      }
    }
    next.clear();
    if (step.kernel.has_value()) {
      RunBatchKernel(*step.kernel, rows, sel, &scratch, &verdicts, stats);
    }
    for (size_t i = 0; i < sel.size(); ++i) {
      const uint32_t r = sel[i];
      // Rows at or past a recorded error cannot change which error the
      // row-at-a-time pass would report first; drop them unevaluated.
      if (static_cast<size_t>(r) >= error_row) break;
      if (step.kernel.has_value()) {
        const uint8_t v = verdicts[i];
        if (v == kBatchRowTrue) {
          next.push_back(r);
          continue;
        }
        if (v == kBatchRowFalse) continue;
        // kBatchRowFallback: exact re-evaluation of this conjunct only.
      }
      auto b = EvalPredicate(*step.conjunct, schema, *rows[r], runtime, stats);
      if (!b.ok()) {
        error = b.status();
        error_row = r;
        break;
      }
      if (*b) next.push_back(r);
    }
    std::swap(sel, next);
  }
  if (error_row != n) return error;

  kept->insert(kept->end(), sel.begin(), sel.end());
  stats->rows_filtered += static_cast<long long>(n - sel.size());
  return Status::OK();
}

Status SqlExecutor::FilterRows(const SqlExpr* where,
                               const std::vector<ColumnSlot>& schema,
                               size_t count, const RowFetch& fetch,
                               QueryRuntime* runtime, ExecStats* stats,
                               RowRefs* kept_rows,
                               std::vector<uint32_t>* kept_ids) {
  ThreadPool& pool = ThreadPool::Global();

  // Compile the WHERE clause's vectorizable conjuncts once per statement.
  BatchProgram program;
  if (where != nullptr && batch_enabled_ && count > 0) {
    program = CompileBatchProgram(*where, schema);
  }
  // One chunk: fetch the candidates at [lo, hi) kBatchRows at a time and
  // keep those passing WHERE. Fetching by batch bounds the scratch a chunk
  // allocates, however many dead slots its range holds. Batches run in
  // order and the first error stops the chunk, so the error reported is
  // still the row-at-a-time pass's first.
  auto filter_chunk = [&](size_t lo, size_t hi, QueryRuntime* chunk_runtime,
                          ExecStats* chunk_stats, RowRefs* out_rows,
                          std::vector<uint32_t>* out_ids) -> Status {
    RowRefs rows;
    std::vector<uint32_t> ids;
    std::vector<uint32_t> kept;
    for (size_t begin = lo; begin < hi; begin += kBatchRows) {
      rows.clear();
      ids.clear();
      kept.clear();
      fetch(begin, std::min(hi, begin + kBatchRows), &rows, &ids,
            chunk_stats);
      if (where == nullptr) {
        out_rows->insert(out_rows->end(), rows.begin(), rows.end());
        out_ids->insert(out_ids->end(), ids.begin(), ids.end());
        continue;
      }
      XQDB_RETURN_IF_ERROR(
          program.any_kernel
              ? FilterChunkBatch(program, schema, rows, chunk_runtime,
                                 chunk_stats, &kept)
              : FilterChunkRows(*where, schema, rows, chunk_runtime,
                                chunk_stats, &kept));
      for (uint32_t k : kept) {
        out_rows->push_back(rows[k]);
        out_ids->push_back(ids[k]);
      }
    }
    return Status::OK();
  };

  if (where == nullptr || pool.thread_count() <= 1 ||
      count < kParallelRowThreshold) {
    return filter_chunk(0, count, runtime, stats, kept_rows, kept_ids);
  }

  // Parallel path: each chunk fetches and evaluates its candidates with a
  // private QueryRuntime (predicate temporaries — constructed nodes —
  // never outlive the predicate), private ExecStats and private survivor
  // lists, so the only shared state is the read-only rows. Chunk results
  // merge in chunk (row) order: the first erroring chunk's error wins, and
  // counter totals equal the serial pass (each candidate belongs to
  // exactly one chunk).
  const size_t grain = PredicateGrain(count, pool.thread_count());
  const size_t chunks = (count + grain - 1) / grain;
  struct ChunkOut {
    RowRefs rows;
    std::vector<uint32_t> ids;
    ExecStats stats;
    Status error = Status::OK();
  };
  std::vector<ChunkOut> outs(chunks);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, count, grain, [&](size_t lo, size_t hi) {
    ChunkOut& out = outs[lo / grain];
    ChunkCpuMeter cpu(&out.stats, caller);
    QueryRuntime chunk_runtime;
    out.error = filter_chunk(lo, hi, &chunk_runtime, &out.stats, &out.rows,
                             &out.ids);
  });
  for (const ChunkOut& out : outs) {
    XQDB_RETURN_IF_ERROR(out.error);
    stats->Merge(out.stats);
    kept_rows->insert(kept_rows->end(), out.rows.begin(), out.rows.end());
    kept_ids->insert(kept_ids->end(), out.ids.begin(), out.ids.end());
  }
  return Status::OK();
}

Result<AdmittedRows> ProbeAccessPath(const Table& table,
                                     const AccessPath& path,
                                     ExecStats* stats) {
  ProbeStats pstats;
  std::vector<uint32_t> rows;
  switch (path.kind) {
    case AccessPath::Kind::kIndexRange: {
      XQDB_ASSIGN_OR_RETURN(rows,
                            path.index->ProbeRange(path.lo, path.hi, &pstats));
      break;
    }
    case AccessPath::Kind::kSummaryExistence: {
      const PathSummary* summary = table.path_summary(path.summary_column);
      PathSummary::MatchStats mstats;
      if (summary != nullptr && path.summary_nfa != nullptr) {
        rows = summary->MatchRows(*path.summary_nfa, &mstats);
      }
      stats->summary_pruned_paths += mstats.pruned_paths;
      break;
    }
    case AccessPath::Kind::kIndexIntersect: {
      XQDB_ASSIGN_OR_RETURN(std::vector<uint32_t> a,
                            path.index->ProbeRange(path.lo, path.hi, &pstats));
      XQDB_ASSIGN_OR_RETURN(
          std::vector<uint32_t> b,
          path.index2->ProbeRange(path.lo2, path.hi2, &pstats));
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(rows));
      break;
    }
    case AccessPath::Kind::kFullScan:
    case AccessPath::Kind::kIndexJoinProbe:
    case AccessPath::Kind::kIndexOnly:
      return AdmittedRows();
  }
  stats->index_entries_probed += static_cast<long long>(pstats.entries_scanned);
  stats->index_docs_returned += static_cast<long long>(rows.size());
  return AdmittedRows(std::move(rows));
}

Result<AdmittedRows> SqlExecutor::ProbeJoinKey(
    const AccessPath& path, const std::vector<ColumnSlot>& base_schema,
    const Row& base, QueryRuntime* runtime, ExecStats* stats) {
  // Tips 5/6 made executable: evaluate the outer join key against this
  // row, then probe the inner table's index with it.
  Evaluator eval(&path.join_source->parsed.static_context,
                 &snapshot_provider_, runtime);
  eval.set_structural_enabled(structural_enabled_);
  eval.set_stats(stats);
  for (const PassingArg& arg : path.join_source->passing) {
    auto value = EvalScalar(*arg.value, base_schema, base, runtime, stats);
    if (!value.ok()) continue;  // References this (inner) table.
    XQDB_ASSIGN_OR_RETURN(Sequence seq, PassingToSequence(*value));
    eval.BindVariable(arg.var_name, std::move(seq));
  }
  auto keys = eval.Eval(*path.join_key_expr);
  if (!keys.ok()) return AdmittedRows();
  XQDB_ASSIGN_OR_RETURN(Sequence atoms, Atomize(*keys));
  ProbeStats pstats;
  std::set<uint32_t> hit;
  for (const Item& key : atoms) {
    auto probed = path.index->ProbeEqual(key.atomic(), &pstats);
    if (!probed.ok()) {
      // Uncastable key: no matches (tolerant, like build skips).
      ++stats->cast_failures;
      continue;
    }
    hit.insert(probed->begin(), probed->end());
  }
  stats->index_entries_probed += static_cast<long long>(pstats.entries_scanned);
  stats->index_docs_returned += static_cast<long long>(hit.size());
  return AdmittedRows(std::vector<uint32_t>(hit.begin(), hit.end()));
}

Status SqlExecutor::Select(const SelectStmt& stmt, const SelectPlan& plan,
                           QueryRuntime* runtime, ExecStats* stats,
                           Selection* out) {
  // The FROM list's schema, and where each item's columns begin in it.
  XQDB_ASSIGN_OR_RETURN(FromSchema from, BuildFromSchema(stmt, *catalog_));
  out->schema = std::move(from.slots);

  // Re-verify the plan's static folds against the live path summaries and
  // install the surviving ones. An emptiness proof is only as current as
  // the DataGuide it was made against — DML since planning (the plan may
  // come from the cache; DML does not bump the catalog version) can insert
  // the "dead" path, in which case the fold silently demotes and the
  // conjunct evaluates normally, exactly like a stale kSummaryExistence
  // plan. True folds carry no witnesses (type algebra is DML-invariant)
  // and always install.
  static_folds_.clear();
  bool statically_empty = false;
  if (static_enabled_) {
    for (const StaticFold& fold : plan.folds) {
      if (fold.conjunct == nullptr ||
          !VerifyEmptyWitnesses(*catalog_, fold.witnesses)) {
        continue;
      }
      static_folds_[fold.conjunct] = fold.value;
      if (fold.value) {
        ++stats->static_folded_conjuncts;
      } else {
        ++stats->static_pruned_exprs;
      }
      if (!fold.value && fold.first_conjunct && plan.static_empty) {
        statically_empty = true;
      }
    }
  }
  // The first conjunct is constant false over an all-base-table FROM: no
  // row can survive and nothing that could raise ever runs, so select
  // nothing — zero rows, zero documents opened.
  if (statically_empty) return Status::OK();

  if (stmt.from.size() == 1 && from.tables[0] != nullptr) {
    // One base table, read in place: the visibility test runs in stage 2's
    // chunks, next to the WHERE.
    const Table* table = from.tables[0];
    AdmittedRows admitted;
    if (!plan.access.empty()) {
      XQDB_ASSIGN_OR_RETURN(admitted,
                            ProbeAccessPath(*table, plan.access[0], stats));
    }
    const size_t count =
        admitted.has_value() ? admitted->size() : table->row_count();
    auto fetch = [&](size_t lo, size_t hi, RowRefs* rows,
                     std::vector<uint32_t>* ids, ExecStats* chunk_stats) {
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t r =
            admitted.has_value() ? (*admitted)[i] : static_cast<uint32_t>(i);
        // Outside the snapshot: inserted after it, deleted at or before
        // it, or (index entry for a row still being inserted) unpublished.
        if (!table->VisibleAt(r, snapshot_epoch_)) continue;
        rows->push_back(&table->row(r));
        ids->push_back(r);
      }
      const auto visited = static_cast<long long>(rows->size());
      chunk_stats->rows_scanned += visited;
      // Definition 1's audit trail: a row visited with no index pre-filter
      // is a scanned document; pre-filtered visits are already metered as
      // index_docs_returned at the probe site.
      if (!admitted.has_value()) chunk_stats->docs_scanned += visited;
    };
    return FilterRows(stmt.where.get(), out->schema, count, fetch, runtime,
                      stats, &out->rows, &out->row_ids);
  }

  // Joins, XMLTABLE and VALUES: build the FROM product, then filter it.
  out->built.emplace_back();  // One empty row to seed the FROM product.
  RowRefs rows = {&out->built[0]};
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    const std::vector<ColumnSlot> base_schema(
        out->schema.begin(),
        out->schema.begin() + static_cast<ptrdiff_t>(from.begin[i]));
    // Rows with no columns before this item's: its rows need no prefix and
    // are read in place.
    const bool in_place = from.begin[i] == 0;
    RowRefs next;
    std::vector<Row> built;

    if (ref.kind == TableRef::Kind::kBaseTable) {
      const Table* table = from.tables[i];
      const AccessPath* path =
          i < plan.access.size() ? &plan.access[i] : nullptr;
      const bool per_row_probe =
          path != nullptr && path->kind == AccessPath::Kind::kIndexJoinProbe;
      AdmittedRows admitted;
      if (path != nullptr && !per_row_probe) {
        XQDB_ASSIGN_OR_RETURN(admitted,
                              ProbeAccessPath(*table, *path, stats));
      }
      const bool from_index = per_row_probe || admitted.has_value();
      long long visited = 0;
      for (const Row* base : rows) {
        AdmittedRows probed;
        if (per_row_probe) {
          XQDB_ASSIGN_OR_RETURN(
              probed, ProbeJoinKey(*path, base_schema, *base, runtime, stats));
        }
        const AdmittedRows& ids = per_row_probe ? probed : admitted;
        auto visit = [&](uint32_t r) {
          if (!table->VisibleAt(r, snapshot_epoch_)) return;
          ++visited;
          const Row& trow = table->row(r);
          if (in_place) {
            next.push_back(&trow);
            return;
          }
          Row combined = *base;
          combined.insert(combined.end(), trow.begin(), trow.end());
          built.push_back(std::move(combined));
        };
        if (ids.has_value()) {
          for (uint32_t r : *ids) visit(r);
        } else {
          // Full scan, or a join key that could not be computed (the
          // residual WHERE keeps the pairing with every inner row exact).
          const uint32_t n = static_cast<uint32_t>(table->row_count());
          for (uint32_t r = 0; r < n; ++r) visit(r);
        }
      }
      stats->rows_scanned += visited;
      if (!from_index) stats->docs_scanned += visited;
    } else {
      // XMLTABLE: lateral evaluation against each current row.
      for (const Row* base : rows) {
        XQDB_ASSIGN_OR_RETURN(
            Sequence row_items,
            EvalEmbeddedXQuery(*ref.row_query, base_schema, *base, runtime,
                               stats));
        long long ordinal = 0;
        for (const Item& item : row_items) {
          ++ordinal;
          Row combined = *base;
          for (const XmlTableColumn& col : ref.columns) {
            if (col.for_ordinality) {
              combined.push_back(SqlValue::Integer(ordinal));
              continue;
            }
            Evaluator eval(&ref.row_query->parsed.static_context,
                           &snapshot_provider_, runtime);
            eval.set_structural_enabled(structural_enabled_);
            eval.set_stats(stats);
            Focus focus;
            focus.has_item = true;
            focus.item = item;
            XQDB_ASSIGN_OR_RETURN(Sequence value,
                                  eval.EvalWithFocus(*col.path_expr, focus));
            ++stats->xquery_evals;
            if (col.is_xml) {
              if (col.by_ref) {
                combined.push_back(SqlValue::Xml(std::move(value)));
              } else {
                // BY VALUE: deep copies with fresh node identities.
                Sequence copied;
                for (const Item& v : value) {
                  if (!v.is_node()) {
                    copied.push_back(v);
                    continue;
                  }
                  Document* doc = runtime->NewDocument();
                  NodeIdx idx = DeepCopyNode(doc, kNullNode, v.node(), true);
                  copied.push_back(Item(NodeHandle{doc, idx}));
                }
                combined.push_back(SqlValue::Xml(std::move(copied)));
              }
            } else {
              // Scalar column: empty sequence → NULL (the §3.2 reason
              // column predicates are not index eligible).
              XQDB_ASSIGN_OR_RETURN(
                  SqlValue cast,
                  XmlCastValue(value, col.type, col.varchar_len));
              combined.push_back(std::move(cast));
            }
          }
          built.push_back(std::move(combined));
        }
      }
    }
    for (const Row& row : built) next.push_back(&row);
    // `built` moves with its buffer, so `next` stays valid; the previous
    // step's rows are no longer read.
    out->built = std::move(built);
    rows = std::move(next);
  }
  auto fetch = [&rows](size_t lo, size_t hi, RowRefs* fetched,
                       std::vector<uint32_t>* ids, ExecStats*) {
    fetched->insert(fetched->end(), rows.begin() + static_cast<ptrdiff_t>(lo),
                    rows.begin() + static_cast<ptrdiff_t>(hi));
    for (size_t i = lo; i < hi; ++i) ids->push_back(static_cast<uint32_t>(i));
  };
  std::vector<uint32_t> positions;
  return FilterRows(stmt.where.get(), out->schema, rows.size(), fetch, runtime,
                    stats, &out->rows, &positions);
}

Result<ResultSet> SqlExecutor::Run(const SelectStmt& stmt,
                                   const SelectPlan& plan) {
  ResultSet rs;
  rs.runtime = std::make_shared<QueryRuntime>();
  Selection sel;
  XQDB_RETURN_IF_ERROR(
      Select(stmt, plan, rs.runtime.get(), &rs.stats, &sel));

  // Stage 3 for a SELECT: project the survivors, read in place.
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (const ColumnSlot& slot : sel.schema) {
        rs.columns.push_back(slot.name);
      }
    } else if (!item.alias.empty()) {
      rs.columns.push_back(item.alias);
    } else if (item.expr->kind == SqlExprKind::kColumnRef) {
      rs.columns.push_back(item.expr->column);
    } else {
      rs.columns.push_back(std::to_string(rs.columns.size() + 1));
    }
  }
  rs.rows.reserve(sel.rows.size());
  for (const Row* survivor : sel.rows) {
    const Row& row = *survivor;
    Row out_row;
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        out_row.insert(out_row.end(), row.begin(), row.end());
      } else {
        XQDB_ASSIGN_OR_RETURN(
            SqlValue v,
            EvalScalar(*item.expr, sel.schema, row, rs.runtime.get(),
                       &rs.stats));
        out_row.push_back(std::move(v));
      }
    }
    rs.rows.push_back(std::move(out_row));
  }
  return rs;
}

Result<ResultSet> SqlExecutor::RunDelete(const SelectStmt& victims,
                                         const SelectPlan& plan,
                                         uint64_t write_epoch) {
  ResultSet rs;
  QueryRuntime runtime;
  Selection sel;
  XQDB_RETURN_IF_ERROR(Select(victims, plan, &runtime, &rs.stats, &sel));
  // Stage 3 for a DELETE: tombstone the survivors. Mutation stays on the
  // calling thread because index maintenance writes shared B-trees.
  XQDB_ASSIGN_OR_RETURN(Table * table,
                        catalog_->GetTable(victims.from[0].table_name));
  for (uint32_t r : sel.row_ids) {
    XQDB_RETURN_IF_ERROR(table->DeleteRow(r, write_epoch));
  }
  return rs;
}

}  // namespace xqdb
