#include "sql/executor.h"

#include <algorithm>
#include <set>

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
      int found = -1;
      for (size_t i = 0; i < schema.size(); ++i) {
        if (schema[i].name != e.column) continue;
        if (!e.qualifier.empty() && schema[i].qualifier != e.qualifier) {
          continue;
        }
        if (found >= 0) {
          return Status::InvalidArgument("ambiguous column reference " +
                                         e.column);
        }
        found = static_cast<int>(i);
      }
      if (found < 0) {
        return Status::NotFound("column " +
                                (e.qualifier.empty()
                                     ? e.column
                                     : e.qualifier + "." + e.column) +
                                " not found");
      }
      return row[static_cast<size_t>(found)];
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

Status SqlExecutor::FilterChunkRows(
    const SqlExpr& where, const std::vector<ColumnSlot>& schema,
    const std::vector<std::vector<SqlValue>>& rows, size_t lo, size_t hi,
    QueryRuntime* runtime, ExecStats* stats, std::vector<char>* keep) {
  keep->assign(hi - lo, 0);
  for (size_t i = lo; i < hi; ++i) {
    XQDB_ASSIGN_OR_RETURN(
        bool b, EvalPredicate(where, schema, rows[i], runtime, stats));
    (*keep)[i - lo] = b ? 1 : 0;
    if (!b) ++stats->rows_filtered;
  }
  return Status::OK();
}

Status SqlExecutor::FilterChunkBatch(
    const BatchProgram& program, const std::vector<ColumnSlot>& schema,
    const std::vector<std::vector<SqlValue>>& rows, size_t lo, size_t hi,
    QueryRuntime* runtime, ExecStats* stats, std::vector<char>* keep) {
  // Selection vector of surviving row indices, ascending. Conjuncts narrow
  // it left-to-right, which reproduces row-at-a-time AND short-circuit: a
  // row rejected by conjunct i never evaluates conjunct i+1.
  std::vector<uint32_t> sel;
  sel.reserve(hi - lo);
  for (size_t i = lo; i < hi; ++i) sel.push_back(static_cast<uint32_t>(i));

  // Conjunct-major evaluation surfaces errors in a different order than
  // row-major evaluation, so errors are collected instead of returned
  // eagerly: a row errors here iff it errors row-at-a-time (it reaches the
  // erroring conjunct iff it survived the earlier ones), and the lowest
  // erroring row is exactly the row the row-at-a-time pass stops at.
  size_t error_row = hi;
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
      auto b = EvalPredicate(*step.conjunct, schema, rows[r], runtime, stats);
      if (!b.ok()) {
        error = b.status();
        error_row = r;
        break;
      }
      if (*b) next.push_back(r);
    }
    std::swap(sel, next);
  }
  if (error_row != hi) return error;

  keep->assign(hi - lo, 0);
  for (uint32_t r : sel) (*keep)[r - lo] = 1;
  stats->rows_filtered += static_cast<long long>((hi - lo) - sel.size());
  return Status::OK();
}

Result<std::vector<std::vector<SqlValue>>> SqlExecutor::FilterRows(
    const SqlExpr& where, const std::vector<ColumnSlot>& schema,
    std::vector<std::vector<SqlValue>> rows, QueryRuntime* runtime,
    ExecStats* stats) {
  ThreadPool& pool = ThreadPool::Global();
  const size_t n = rows.size();

  // Compile the WHERE clause's vectorizable conjuncts once per statement.
  // Slot resolution must agree with EvalScalar's kColumnRef rules:
  // ambiguous or unresolved references stay un-batched so the exact path
  // reports the identical error.
  BatchProgram program;
  if (batch_enabled_ && n > 0) {
    program = CompileBatchProgram(
        where, [&schema](const std::string& qualifier,
                         const std::string& column) -> int {
          int found = -1;
          for (size_t i = 0; i < schema.size(); ++i) {
            if (schema[i].name != column) continue;
            if (!qualifier.empty() && schema[i].qualifier != qualifier) {
              continue;
            }
            if (found >= 0) return -1;  // ambiguous
            found = static_cast<int>(i);
          }
          return found;
        });
  }
  const bool use_batch = program.any_kernel;

  if (pool.thread_count() <= 1 || n < kParallelRowThreshold) {
    std::vector<char> keep;
    XQDB_RETURN_IF_ERROR(
        use_batch ? FilterChunkBatch(program, schema, rows, 0, n, runtime,
                                     stats, &keep)
                  : FilterChunkRows(where, schema, rows, 0, n, runtime, stats,
                                    &keep));
    std::vector<std::vector<SqlValue>> kept;
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) kept.push_back(std::move(rows[i]));
    }
    return kept;
  }

  // Parallel path: each chunk evaluates its rows with a private
  // QueryRuntime (predicate temporaries — constructed nodes — never
  // outlive the predicate) and private ExecStats; the verdict bitmap is
  // written to disjoint per-chunk slots, so the only shared state is the
  // read-only table storage behind `rows`. Chunk results merge in chunk
  // (row) order: the first erroring chunk's error wins, and counter totals
  // equal the serial pass (each row contributes to exactly one chunk).
  const size_t grain = PredicateGrain(n, pool.thread_count());
  const size_t chunks = (n + grain - 1) / grain;
  struct ChunkOut {
    std::vector<char> keep;
    ExecStats stats;
    Status error = Status::OK();
  };
  std::vector<ChunkOut> outs(chunks);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, n, grain, [&](size_t lo, size_t hi) {
    ChunkOut& out = outs[lo / grain];
    ChunkCpuMeter cpu(&out.stats, caller);
    QueryRuntime chunk_runtime;
    out.error = use_batch
                    ? FilterChunkBatch(program, schema, rows, lo, hi,
                                       &chunk_runtime, &out.stats, &out.keep)
                    : FilterChunkRows(where, schema, rows, lo, hi,
                                      &chunk_runtime, &out.stats, &out.keep);
  });
  std::vector<std::vector<SqlValue>> kept;
  for (size_t c = 0; c < chunks; ++c) {
    XQDB_RETURN_IF_ERROR(outs[c].error);
    stats->Merge(outs[c].stats);
    for (size_t i = 0; i < outs[c].keep.size(); ++i) {
      if (outs[c].keep[i]) kept.push_back(std::move(rows[c * grain + i]));
    }
  }
  return kept;
}

Result<size_t> SqlExecutor::RunDelete(const DeleteStmt& stmt,
                                      uint64_t write_epoch,
                                      ExecStats* out_stats) {
  XQDB_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(stmt.table_name));
  std::vector<ColumnSlot> schema;
  for (const ColumnDef& col : table->columns()) {
    schema.push_back(ColumnSlot{table->name(), col.name});
  }
  ExecStats stats;
  const size_t n = table->row_count();
  std::vector<uint32_t> victims;
  ThreadPool& pool = ThreadPool::Global();
  if (stmt.where == nullptr || pool.thread_count() <= 1 ||
      n < kParallelRowThreshold) {
    QueryRuntime runtime;
    for (uint32_t r = 0; r < n; ++r) {
      if (!table->VisibleAt(r, snapshot_epoch_)) continue;
      if (stmt.where != nullptr) {
        XQDB_ASSIGN_OR_RETURN(
            bool hit, EvalPredicate(*stmt.where, schema, table->row(r),
                                    &runtime, &stats));
        if (!hit) continue;
      }
      victims.push_back(r);
    }
  } else {
    // Parallel victim detection; mutation (DeleteRow) stays on the calling
    // thread because index maintenance writes shared B-trees.
    const size_t grain = PredicateGrain(n, pool.thread_count());
    const size_t chunks = (n + grain - 1) / grain;
    struct ChunkOut {
      std::vector<uint32_t> victims;
      ExecStats stats;
      Status error = Status::OK();
    };
    std::vector<ChunkOut> outs(chunks);
    const std::thread::id caller = std::this_thread::get_id();
    pool.ParallelFor(0, n, grain, [&](size_t lo, size_t hi) {
      ChunkOut& out = outs[lo / grain];
      ChunkCpuMeter cpu(&out.stats, caller);
      QueryRuntime runtime;
      for (size_t r = lo; r < hi; ++r) {
        uint32_t rid = static_cast<uint32_t>(r);
        if (!table->VisibleAt(rid, snapshot_epoch_)) continue;
        auto hit = EvalPredicate(*stmt.where, schema, table->row(rid),
                                 &runtime, &out.stats);
        if (!hit.ok()) {
          out.error = hit.status();
          return;
        }
        if (*hit) out.victims.push_back(rid);
      }
    });
    for (ChunkOut& out : outs) {
      XQDB_RETURN_IF_ERROR(out.error);
      stats.Merge(out.stats);
      victims.insert(victims.end(), out.victims.begin(), out.victims.end());
    }
  }
  for (uint32_t r : victims) {
    XQDB_RETURN_IF_ERROR(table->DeleteRow(r, write_epoch));
  }
  if (out_stats != nullptr) out_stats->Merge(stats);
  return victims.size();
}

Result<ResultSet> SqlExecutor::Run(const SelectStmt& stmt,
                                   const SelectPlan& plan) {
  ResultSet rs;
  rs.runtime = std::make_shared<QueryRuntime>();
  ExecStats& stats = rs.stats;

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
        ++stats.static_folded_conjuncts;
      } else {
        ++stats.static_pruned_exprs;
      }
      if (!fold.value && fold.first_conjunct && plan.static_empty) {
        statically_empty = true;
      }
    }
  }
  if (statically_empty) {
    // The first conjunct is constant false over an all-base-table FROM:
    // no row can survive and nothing that could raise ever runs, so
    // answer with the schema alone — zero rows, zero documents opened.
    std::vector<ColumnSlot> schema;
    for (const TableRef& ref : stmt.from) {
      XQDB_ASSIGN_OR_RETURN(Table * table,
                            catalog_->GetTable(ref.table_name));
      for (const ColumnDef& col : table->columns()) {
        schema.push_back(ColumnSlot{ref.alias, col.name});
      }
    }
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        for (const ColumnSlot& slot : schema) {
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
    return rs;
  }

  std::vector<ColumnSlot> schema;
  std::vector<std::vector<SqlValue>> rows;
  rows.emplace_back();  // One empty row to seed the joins.

  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    const AccessPath* path =
        i < plan.access.size() ? &plan.access[i] : nullptr;
    std::vector<std::vector<SqlValue>> next;

    if (ref.kind == TableRef::Kind::kBaseTable) {
      XQDB_ASSIGN_OR_RETURN(Table * table,
                            catalog_->GetTable(ref.table_name));
      bool per_row_probe =
          path != nullptr && path->kind == AccessPath::Kind::kIndexJoinProbe;

      bool static_probe = !per_row_probe && path != nullptr &&
                          path->kind != AccessPath::Kind::kFullScan;
      if (static_probe && path->summary_containment) {
        // Data-dependent eligibility (summary-derived containment): the
        // claim depends on the collection's path set at plan time, so
        // re-verify against the live summary and demote to a scan when
        // DML has grown the path set past the index pattern.
        const PathSummary* summary =
            table->path_summary(path->summary_column);
        static_probe =
            summary != nullptr && path->summary_nfa != nullptr &&
            path->containment_nfa != nullptr &&
            summary->MatchedPathsCoveredBy(*path->summary_nfa,
                                           *path->containment_nfa);
      }

      // Which row ids to visit (join probes recompute per outer row).
      std::vector<uint32_t> static_row_ids;
      if (static_probe) {
        ProbeStats pstats;
        switch (path->kind) {
          case AccessPath::Kind::kIndexRange:
          case AccessPath::Kind::kIndexStructural: {
            XQDB_ASSIGN_OR_RETURN(
                static_row_ids,
                path->index->ProbeRange(path->lo, path->hi, &pstats));
            break;
          }
          case AccessPath::Kind::kSummaryExistence: {
            const PathSummary* summary =
                table->path_summary(path->summary_column);
            PathSummary::MatchStats mstats;
            if (summary != nullptr && path->summary_nfa != nullptr) {
              static_row_ids =
                  summary->MatchRows(*path->summary_nfa, &mstats);
            }
            stats.summary_pruned_paths += mstats.pruned_paths;
            break;
          }
          case AccessPath::Kind::kIndexIntersect: {
            XQDB_ASSIGN_OR_RETURN(
                std::vector<uint32_t> a,
                path->index->ProbeRange(path->lo, path->hi, &pstats));
            XQDB_ASSIGN_OR_RETURN(
                std::vector<uint32_t> b,
                path->index2->ProbeRange(path->lo2, path->hi2, &pstats));
            std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(static_row_ids));
            break;
          }
          default:
            break;
        }
        stats.index_entries_probed += static_cast<long long>(pstats.entries_scanned);
        stats.index_docs_returned +=
            static_cast<long long>(static_row_ids.size());
      } else if (!per_row_probe) {
        // Full scan (or a demoted stale summary-containment probe).
        static_row_ids.reserve(table->live_row_count());
        for (uint32_t r = 0; r < table->row_count(); ++r) {
          if (table->VisibleAt(r, snapshot_epoch_)) static_row_ids.push_back(r);
        }
      }

      std::vector<ColumnSlot> base_schema(schema);
      for (const ColumnDef& col : table->columns()) {
        schema.push_back(ColumnSlot{ref.alias, col.name});
      }
      for (const auto& base : rows) {
        std::vector<uint32_t> probe_row_ids;
        const std::vector<uint32_t>* row_ids = &static_row_ids;
        if (per_row_probe) {
          // Tips 5/6 made executable: evaluate the outer join key against
          // this row, then probe the inner table's index with it.
          Evaluator eval(&path->join_source->parsed.static_context,
                         &snapshot_provider_, rs.runtime.get());
          eval.set_structural_enabled(structural_enabled_);
          eval.set_stats(&stats);
          for (const PassingArg& arg : path->join_source->passing) {
            auto value = EvalScalar(*arg.value, base_schema, base,
                                    rs.runtime.get(), &stats);
            if (!value.ok()) continue;  // References this (inner) table.
            XQDB_ASSIGN_OR_RETURN(Sequence seq, PassingToSequence(*value));
            eval.BindVariable(arg.var_name, std::move(seq));
          }
          auto keys = eval.Eval(*path->join_key_expr);
          if (keys.ok()) {
            XQDB_ASSIGN_OR_RETURN(Sequence atoms, Atomize(*keys));
            ProbeStats pstats;
            std::set<uint32_t> hit;
            for (const Item& key : atoms) {
              auto probed = path->index->ProbeEqual(key.atomic(), &pstats);
              if (!probed.ok()) {
                // Uncastable key: no matches (tolerant, like build skips).
                ++stats.cast_failures;
                continue;
              }
              hit.insert(probed->begin(), probed->end());
            }
            stats.index_entries_probed +=
                static_cast<long long>(pstats.entries_scanned);
            probe_row_ids.assign(hit.begin(), hit.end());
            stats.index_docs_returned +=
                static_cast<long long>(probe_row_ids.size());
          } else {
            // Could not compute the key (unexpected): fall back to pairing
            // this outer row with every inner row; the residual WHERE
            // keeps the result correct.
            probe_row_ids.reserve(table->row_count());
            for (uint32_t r = 0; r < table->row_count(); ++r) {
              probe_row_ids.push_back(r);
            }
          }
          row_ids = &probe_row_ids;
        }
        const bool from_index = per_row_probe || static_probe;
        for (uint32_t r : *row_ids) {
          // Outside the snapshot: inserted after it, deleted at or before
          // it, or (index entry for a row still being inserted) unpublished.
          if (!table->VisibleAt(r, snapshot_epoch_)) continue;
          ++stats.rows_scanned;
          // Definition 1's audit trail: a row visited with no index
          // pre-filter is a scanned document; pre-filtered visits are
          // already metered as index_docs_returned at the probe site.
          if (!from_index) ++stats.docs_scanned;
          std::vector<SqlValue> combined = base;
          const std::vector<SqlValue>& trow = table->row(r);
          combined.insert(combined.end(), trow.begin(), trow.end());
          next.push_back(std::move(combined));
        }
      }
    } else {
      // XMLTABLE: lateral evaluation against each current row.
      size_t base_width = schema.size();
      for (const XmlTableColumn& col : ref.columns) {
        schema.push_back(ColumnSlot{ref.alias, col.name});
      }
      for (const auto& base : rows) {
        std::vector<ColumnSlot> base_schema(schema.begin(),
                                            schema.begin() +
                                                static_cast<ptrdiff_t>(
                                                    base_width));
        XQDB_ASSIGN_OR_RETURN(
            Sequence row_items,
            EvalEmbeddedXQuery(*ref.row_query, base_schema, base,
                               rs.runtime.get(), &stats));
        long long ordinal = 0;
        for (const Item& item : row_items) {
          ++ordinal;
          std::vector<SqlValue> combined = base;
          for (const XmlTableColumn& col : ref.columns) {
            if (col.for_ordinality) {
              combined.push_back(SqlValue::Integer(ordinal));
              continue;
            }
            Evaluator eval(&ref.row_query->parsed.static_context,
                           &snapshot_provider_, rs.runtime.get());
            eval.set_structural_enabled(structural_enabled_);
            eval.set_stats(&stats);
            Focus focus;
            focus.has_item = true;
            focus.item = item;
            XQDB_ASSIGN_OR_RETURN(Sequence value,
                                  eval.EvalWithFocus(*col.path_expr, focus));
            ++stats.xquery_evals;
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
                  Document* doc = rs.runtime->NewDocument();
                  NodeIdx idx =
                      DeepCopyNode(doc, kNullNode, v.node(), true);
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
          next.push_back(std::move(combined));
        }
      }
    }
    rows = std::move(next);
  }

  // WHERE. This is the ineligible-predicate fallback path: when no index
  // pre-filters, every row evaluates its XMLEXISTS/XQuery predicates here,
  // so the work fans out document-at-a-time to the thread pool.
  if (stmt.where != nullptr) {
    XQDB_ASSIGN_OR_RETURN(
        rows, FilterRows(*stmt.where, schema, std::move(rows),
                         rs.runtime.get(), &stats));
  }

  // SELECT list.
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      for (const ColumnSlot& slot : schema) rs.columns.push_back(slot.name);
    } else if (!item.alias.empty()) {
      rs.columns.push_back(item.alias);
    } else if (item.expr->kind == SqlExprKind::kColumnRef) {
      rs.columns.push_back(item.expr->column);
    } else {
      rs.columns.push_back(std::to_string(rs.columns.size() + 1));
    }
  }
  for (auto& row : rows) {
    std::vector<SqlValue> out_row;
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        out_row.insert(out_row.end(), row.begin(), row.end());
      } else {
        XQDB_ASSIGN_OR_RETURN(
            SqlValue v,
            EvalScalar(*item.expr, schema, row, rs.runtime.get(), &stats));
        out_row.push_back(std::move(v));
      }
    }
    rs.rows.push_back(std::move(out_row));
  }
  return rs;
}

}  // namespace xqdb
