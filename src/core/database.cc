#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "analysis/analyzer.h"
#include "analysis/static_types.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "observability/trace.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

namespace xqdb {

namespace {

/// Downgrades every access path of a SELECT plan to a full collection
/// scan (ExecOptions::force_scan). The residual predicate is always
/// re-applied by the executor, so the scan plan computes the ground-truth
/// result any index plan must match.
void ForceScanPlan(SelectPlan* plan) {
  for (AccessPath& access : plan->access) {
    std::vector<std::string> notes = std::move(access.notes);
    access = AccessPath{};
    access.notes = std::move(notes);
    access.summary = "forced collection scan (ExecOptions::force_scan)";
  }
  // A forced scan is the ground-truth execution: no folded conjuncts, no
  // statically-pruned plan may shortcut it.
  plan->folds.clear();
  plan->static_empty = false;
  plan->static_reason.clear();
}

void ForceScanPlan(XQueryPlan* plan) {
  plan->use_index = false;
  std::vector<std::string> notes = std::move(plan->access.notes);
  plan->access = AccessPath{};
  plan->access.notes = std::move(notes);
  plan->access.summary = "forced collection scan (ExecOptions::force_scan)";
  plan->static_empty = false;
  plan->static_reason.clear();
  plan->static_witnesses.clear();
}

/// The per-statement execution switches, applied alike to a SELECT and to
/// the victim selection of a DELETE.
void ApplyExecOptions(const ExecOptions& options, SqlExecutor* executor) {
  if (options.disable_structural) executor->set_structural_enabled(false);
  if (options.disable_batch) executor->set_batch_enabled(false);
  if (options.disable_static) executor->set_static_enabled(false);
}

long long NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fills the phase timings of one finished execution. On a plan-cache hit
/// the caller passes parse_end == plan_end == t0 so parse/plan read 0 —
/// the phases genuinely did not run. `exec_cpu0` is the calling thread's
/// CPU clock when the exec phase began; pool chunks on other threads have
/// already merged their own CPU time into stats->cpu_ns. pool_tasks is
/// metered as the delta of the process-wide dispatch counter, which
/// over-counts when another query runs concurrently; per-query exactness
/// would put a shared atomic on the chunk hot path, and "roughly how
/// parallel was this?" doesn't need it.
void FinishStats(ExecStats* stats, long long t0, long long parse_end,
                 long long plan_end, long long exec_cpu0,
                 long long tasks_before) {
  stats->cpu_ns += ThreadCpuNs() - exec_cpu0;
  const long long t1 = NowNs();
  stats->parse_ns = parse_end - t0;
  stats->plan_ns = plan_end - parse_end;
  stats->exec_ns = t1 - plan_end;
  stats->total_ns = t1 - t0;
  stats->pool_tasks += ThreadPool::TasksExecuted() - tasks_before;
}

constexpr char kNoPlanText[] = "  (DDL/DML statement — no access plan)\n";

/// Per-cell display form of a result set, the equality the fix verifier
/// uses (the same canonicalization the differential harness compares on).
std::vector<std::vector<std::string>> DisplayRows(const ResultSet& rs) {
  std::vector<std::vector<std::string>> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (const SqlValue& v : row) r.push_back(v.ToDisplayString());
    out.push_back(std::move(r));
  }
  return out;
}

void AppendLint(std::string* out, const std::string& lint) {
  if (lint.empty()) return;
  if (!out->empty() && out->back() != '\n') *out += '\n';
  *out += lint;
}

/// Drops a diagnostic's candidate fix, leaving advice in its place.
void DemoteFix(Diagnostic* d) {
  d->fix_edits.clear();
  if (d->suggestion.empty()) {
    d->suggestion =
        "a mechanical rewrite was considered but did not verify as "
        "result-equivalent on the current data, so it is not offered";
  }
}

}  // namespace

template <typename ResultT>
void Database::EmitQueryTrace(const char* kind, const std::string& text,
                              const std::string& plan,
                              const ExecOptions& options,
                              const ResultT& result) {
  const bool tracing = options.trace || TraceEnabledByEnv();
  if (!tracing && SlowQueryThresholdNs() == 0) return;
  QueryTrace trace;
  trace.kind = kind;
  trace.text = text;
  trace.plan = plan;
  trace.session_id = options.session_id;
  trace.ok = result.ok();
  if (result.ok()) {
    trace.stats = result->stats;
  } else {
    trace.error = result.status().ToString();
  }
  if (tracing) EmitTrace(trace);
  MaybeLogSlowQuery(trace);
}

Result<ResultSet> Database::RunSelect(const SelectStmt& stmt,
                                      const SelectPlan& plan,
                                      const ExecOptions& options) {
  // Evaluate against one consistent snapshot: the caller's pinned epoch
  // (server sessions), or a pin held for the duration of this statement.
  std::optional<SnapshotHandle> pin;
  uint64_t epoch = options.snapshot_epoch;
  if (epoch == 0) {
    pin.emplace(epoch_manager_);
    epoch = pin->epoch();
  }
  SqlExecutor executor(&catalog_, epoch);
  ApplyExecOptions(options, &executor);
  return executor.Run(stmt, plan);
}

Result<ResultSet> Database::ExecuteSql(const std::string& sql,
                                       const ExecOptions& options) {
  const bool tracing = options.trace || TraceEnabledByEnv();
  std::string plan_text;
  auto rs = ExecuteSqlInternal(sql, options, tracing ? &plan_text : nullptr);
  EmitQueryTrace("sql", sql, plan_text, options, rs);
  return rs;
}

Result<ResultSet> Database::ExecuteSqlInternal(const std::string& sql,
                                               const ExecOptions& options,
                                               std::string* plan_text) {
  const long long t0 = NowNs();
  const long long tasks0 = ThreadPool::TasksExecuted();
  // A forced plan must not be served from (or inserted into) the cache;
  // neither may an unfolded plan (disable_static) mix with the cached
  // statically-folded plans the default path produces.
  const bool use_cache = !options.disable_cache && !options.force_scan &&
                         !options.disable_static;
  // Serving fast path: a repeated query reuses its parsed AST + plan and
  // skips the whole front end. Only SELECTs are ever inserted, so a cache
  // hit implies a SELECT.
  const uint64_t catalog_version = catalog_.version();
  if (use_cache) {
    if (auto cached = query_cache_.LookupSql(sql, catalog_version)) {
      const long long exec_cpu0 = ThreadCpuNs();
      if (plan_text != nullptr) {
        *plan_text = cached->plan.Explain(*cached->stmt.select);
      }
      auto rs = RunSelect(*cached->stmt.select, cached->plan, options);
      if (rs.ok()) {
        rs->stats.plan_cache_hits = 1;
        FinishStats(&rs->stats, t0, t0, t0, exec_cpu0, tasks0);
      }
      return rs;
    }
  }
  XQDB_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));
  const long long parse_end = NowNs();
  long long plan_end = parse_end;
  // SELECT and DELETE restart the CPU clock after planning; DDL and INSERT
  // execute straight after parsing.
  long long exec_cpu0 = stmt.select == nullptr ? ThreadCpuNs() : 0;
  if (plan_text != nullptr) *plan_text = kNoPlanText;
  // A DELETE plans exactly as the SELECT of its victims does.
  auto plan_select = [&](const SelectStmt& select) -> Result<SelectPlan> {
    Planner planner(&catalog_);
    if (options.disable_static) planner.set_static_enabled(false);
    XQDB_ASSIGN_OR_RETURN(SelectPlan plan, planner.PlanSelect(select));
    if (options.force_scan) ForceScanPlan(&plan);
    plan_end = NowNs();
    exec_cpu0 = ThreadCpuNs();
    if (plan_text != nullptr) *plan_text = plan.Explain(select);
    return plan;
  };
  Result<ResultSet> rs = Status::Internal("unhandled statement kind");
  switch (stmt.kind) {
    case SqlStatement::Kind::kCreateTable: {
      WriteTicket ticket(epoch_manager_);
      rs = RunCreateTable(*stmt.create_table);
      break;
    }
    case SqlStatement::Kind::kCreateIndex: {
      {
        WriteTicket ticket(epoch_manager_);
        rs = RunCreateIndex(*stmt.create_index);
      }
      VacuumTable(stmt.create_index->table_name);
      break;
    }
    case SqlStatement::Kind::kInsert: {
      {
        WriteTicket ticket(epoch_manager_);
        rs = RunInsert(*stmt.insert, ticket.write_epoch());
      }
      VacuumTable(stmt.insert->table_name);
      break;
    }
    case SqlStatement::Kind::kDelete: {
      // Planned before the write ticket, like any SELECT: a plan stays
      // valid across DML (its static proofs are re-verified and its
      // DataGuide probes run at execution), so the ticket covers only the
      // victims' selection and their tombstones.
      auto plan = plan_select(*stmt.select);
      if (!plan.ok()) {
        rs = plan.status();
        break;
      }
      {
        WriteTicket ticket(epoch_manager_);
        rs = RunDeleteStmt(*stmt.select, *plan, ticket.write_epoch(),
                           options);
      }
      // Post-commit: physically unindex whatever no snapshot can see
      // anymore. With no pins outstanding this drains the statement's own
      // tombstones immediately — single-session behaviour is unchanged.
      if (rs.ok()) VacuumTable(stmt.select->from[0].table_name);
      break;
    }
    case SqlStatement::Kind::kSelect: {
      auto plan = plan_select(*stmt.select);
      if (!plan.ok()) {
        rs = plan.status();
        break;
      }
      auto entry = std::make_shared<CachedSqlQuery>();
      entry->stmt = std::move(stmt);
      entry->plan = *std::move(plan);
      entry->catalog_version = catalog_version;
      if (use_cache) query_cache_.InsertSql(sql, entry);
      rs = RunSelect(*entry->stmt.select, entry->plan, options);
      break;
    }
  }
  if (rs.ok()) {
    FinishStats(&rs->stats, t0, parse_end, plan_end, exec_cpu0, tasks0);
  }
  return rs;
}

Result<std::string> Database::ExplainSql(const std::string& sql) {
  XQDB_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));
  // SELECT, and DELETE by the SELECT of its victims; DDL and INSERT have
  // no access plan.
  if (stmt.select == nullptr) return std::string(kNoPlanText);
  Planner planner(&catalog_);
  XQDB_ASSIGN_OR_RETURN(SelectPlan plan, planner.PlanSelect(*stmt.select));
  std::string out = plan.Explain(*stmt.select);
  AppendLint(&out, AnalyzeSqlStatement(stmt, sql, &catalog_).Render(sql));
  return out;
}

Result<std::string> Database::ExplainAnalyzeSql(const std::string& sql,
                                                const ExecOptions& options) {
  std::string plan_text;
  auto rs = ExecuteSqlInternal(sql, options, &plan_text);
  EmitQueryTrace("explain-analyze", sql, plan_text, options, rs);
  if (!rs.ok()) return rs.status();
  std::string out = std::move(plan_text);
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += "  runtime:\n";
  out += rs->stats.Render();
  AppendLint(&out, RenderSqlLint(sql));
  return out;
}

Result<std::string> Database::ExplainAnalyzeXQuery(const std::string& query,
                                                   const ExecOptions& options) {
  auto res = ExecuteXQueryInternal(query, options);
  EmitQueryTrace("explain-analyze", query,
                 res.ok() ? res->plan : std::string(), options, res);
  if (!res.ok()) return res.status();
  std::string out = res->plan;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += "  runtime:\n";
  out += res->stats.Render();
  AppendLint(&out, RenderXQueryLint(query));
  return out;
}

Result<Database::XQueryResult> Database::ExecuteXQuery(
    const std::string& query, const ExecOptions& options) {
  auto out = ExecuteXQueryInternal(query, options);
  EmitQueryTrace("xquery", query, out.ok() ? out->plan : std::string(),
                 options, out);
  return out;
}

Result<Database::XQueryResult> Database::ExecuteXQueryInternal(
    const std::string& query, const ExecOptions& options) {
  const long long t0 = NowNs();
  const long long tasks0 = ThreadPool::TasksExecuted();
  const bool use_cache = !options.disable_cache && !options.force_scan &&
                         !options.disable_static;
  const uint64_t catalog_version = catalog_.version();
  if (use_cache) {
    if (auto cached = query_cache_.LookupXQuery(query, catalog_version)) {
      const long long exec_cpu0 = ThreadCpuNs();
      auto out = RunXQuery(cached->parsed, cached->plan, options);
      if (out.ok()) {
        out->stats.plan_cache_hits = 1;
        FinishStats(&out->stats, t0, t0, t0, exec_cpu0, tasks0);
      }
      return out;
    }
  }
  XQDB_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseXQuery(query));
  const long long parse_end = NowNs();
  Planner planner(&catalog_);
  if (options.disable_static) planner.set_static_enabled(false);
  XQDB_ASSIGN_OR_RETURN(XQueryPlan plan, planner.PlanXQuery(*parsed.body));
  if (options.force_scan) ForceScanPlan(&plan);
  const long long plan_end = NowNs();
  const long long exec_cpu0 = ThreadCpuNs();
  auto entry = std::make_shared<CachedXQuery>();
  entry->parsed = std::move(parsed);
  entry->plan = std::move(plan);
  entry->catalog_version = catalog_version;
  if (use_cache) query_cache_.InsertXQuery(query, entry);
  auto out = RunXQuery(entry->parsed, entry->plan, options);
  if (out.ok()) {
    FinishStats(&out->stats, t0, parse_end, plan_end, exec_cpu0, tasks0);
  }
  return out;
}

Result<Database::XQueryResult> Database::RunXQuery(const ParsedQuery& parsed,
                                                   const XQueryPlan& plan,
                                                   const ExecOptions& options) {
  XQueryResult out;
  out.plan = plan.Explain();
  out.runtime = std::make_shared<QueryRuntime>();

  // Statically-empty body (DESIGN.md §13): the planner proved the result
  // is the empty sequence and that evaluation cannot raise. The proof's
  // emptiness witnesses are only as current as the DataGuide they were
  // made against, so re-verify each against the live summary — DML since
  // planning (plans are cached; DML does not bump the catalog version)
  // demotes to the normal plan below, keeping results exact. A witness
  // probe walks the summary trie; no document is opened either way.
  if (plan.static_empty && !options.disable_static &&
      VerifyEmptyWitnesses(catalog_, plan.static_witnesses)) {
    out.stats.static_pruned_exprs = 1;
    return out;  // zero items, zero rows, docs_scanned = 0
  }

  // One consistent snapshot for the whole evaluation (see RunSelect).
  std::optional<SnapshotHandle> pin;
  uint64_t epoch = options.snapshot_epoch;
  if (epoch == 0) {
    pin.emplace(epoch_manager_);
    epoch = pin->epoch();
  }
  const Table* table = nullptr;
  if (plan.use_index) {
    XQDB_ASSIGN_OR_RETURN(table, catalog_.GetTable(plan.table));
  }
  if (table != nullptr && plan.access.kind == AccessPath::Kind::kIndexOnly) {
    // Covering aggregate: answer fn:count/sum/avg/min/max straight from the
    // B+Tree entries — zero documents materialized. The plan proved the
    // index entry set equals the query match set in the pattern language
    // (containment both ways); what it could NOT prove statically is the
    // data-dependent residue, so re-verify here, like the static-empty
    // witnesses above: any tolerantly skipped uncastable or NaN node means
    // the entries under-count the match set, and we demote to the
    // collection scan. disable_batch gates this path too, so the xqdiff
    // row-at-a-time oracle exercises the evaluator instead.
    bool covering = !options.disable_batch && plan.access.index != nullptr &&
                    plan.access.index->cast_skip_count() == 0;
    ProbeStats pstats;
    std::vector<DoubleIndexEntry> entries;
    if (covering) {
      covering = plan.access.index->ScanDoubleEntries(&entries, &pstats);
    }
    if (covering) {
      std::vector<DoubleIndexEntry> visible;
      visible.reserve(entries.size());
      for (const DoubleIndexEntry& e : entries) {
        if (table->VisibleAt(e.row, epoch)) visible.push_back(e);
      }
      // Key order out of the tree; the aggregates below are specified over
      // document order (sum accumulates left to right; min/max keep the
      // first of equal keys), so re-sort by (row, node id).
      std::sort(visible.begin(), visible.end(),
                [](const DoubleIndexEntry& a, const DoubleIndexEntry& b) {
                  return a.row != b.row ? a.row < b.row : a.node < b.node;
                });
      const size_t n = visible.size();
      switch (plan.access.index_only_agg) {
        case AccessPath::IndexOnlyAgg::kNone:
          return Status::Internal("index-only plan without an aggregate");
        case AccessPath::IndexOnlyAgg::kCount:
          out.items.push_back(
              Item(AtomicValue::Integer(static_cast<long long>(n))));
          break;
        case AccessPath::IndexOnlyAgg::kSum: {
          // fn:sum of untyped values casts each to double; the empty
          // sequence sums to xs:integer 0 (functions.cc FnSum).
          if (n == 0) {
            out.items.push_back(Item(AtomicValue::Integer(0)));
          } else {
            double sum = 0;
            for (const DoubleIndexEntry& e : visible) sum += e.key;
            out.items.push_back(Item(AtomicValue::Double(sum)));
          }
          break;
        }
        case AccessPath::IndexOnlyAgg::kAvg: {
          if (n > 0) {  // fn:avg of () is ().
            double sum = 0;
            for (const DoubleIndexEntry& e : visible) sum += e.key;
            out.items.push_back(
                Item(AtomicValue::Double(sum / static_cast<double>(n))));
          }
          break;
        }
        case AccessPath::IndexOnlyAgg::kMin:
        case AccessPath::IndexOnlyAgg::kMax: {
          if (n > 0) {  // fn:min/max of () is ().
            const bool want_min =
                plan.access.index_only_agg == AccessPath::IndexOnlyAgg::kMin;
            double best = visible[0].key;
            for (size_t i = 1; i < n; ++i) {
              const double k = visible[i].key;
              // Strict compare: equal keys keep the earlier value, matching
              // the evaluator's MinMax loop. NaN cannot appear — KeyFor
              // skips NaN keys and the cast_skip_count gate above proved
              // there were none.
              if (want_min ? k < best : k > best) best = k;
            }
            out.items.push_back(Item(AtomicValue::Double(best)));
          }
          break;
        }
      }
      long long distinct_rows = 0;
      for (size_t i = 0; i < n; ++i) {
        if (i == 0 || visible[i].row != visible[i - 1].row) ++distinct_rows;
      }
      out.stats.index_entries_probed =
          static_cast<long long>(pstats.entries_scanned);
      out.stats.index_docs_returned = distinct_rows;
      out.stats.index_only_rows = static_cast<long long>(n);
      out.stats.xquery_evals = 1;
      // docs_scanned and rows_scanned stay 0: no document was opened.
      out.rows.reserve(out.items.size());
      for (const Item& item : out.items) {
        out.rows.push_back(item.atomic().Lexical());
      }
      return out;
    }
    // Demoted: the covering claim no longer holds (batch execution is off,
    // or DML introduced a tolerant cast skip). ProbeAccessPath admits every
    // row for kIndexOnly, so the evaluator scans the collection.
  }
  AdmittedRows admitted;
  if (table != nullptr) {
    XQDB_ASSIGN_OR_RETURN(admitted,
                          ProbeAccessPath(*table, plan.access, &out.stats));
  }
  SnapshotProvider snapshot_provider(&catalog_, epoch);
  std::unique_ptr<FilteredProvider> filtered;
  const XmlColumnProvider* provider = &snapshot_provider;
  if (admitted.has_value()) {
    filtered = std::make_unique<FilteredProvider>(
        &catalog_, plan.table, plan.column, *std::move(admitted), epoch);
    provider = filtered.get();
  }

  Evaluator eval(&parsed.static_context, provider, out.runtime.get());
  if (options.disable_structural) eval.set_structural_enabled(false);
  eval.set_stats(&out.stats);
  XQDB_ASSIGN_OR_RETURN(out.items, eval.Eval(*parsed.body));
  out.stats.rows_scanned = eval.docs_navigated();
  // Without an index pre-filter every navigated document was visited
  // blind — that is a collection scan, the ineligible shape of Definition
  // 1; with one, the documents the evaluator saw were index-admitted and
  // already counted in index_docs_returned.
  if (filtered == nullptr) out.stats.docs_scanned = eval.docs_navigated();
  out.stats.xquery_evals = 1;

  out.rows.reserve(out.items.size());
  for (const Item& item : out.items) {
    if (item.is_node()) {
      out.rows.push_back(SerializeXml(item.node()));
    } else {
      out.rows.push_back(item.atomic().Lexical());
    }
  }
  return out;
}

Result<std::string> Database::ExplainXQuery(const std::string& query) {
  XQDB_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseXQuery(query));
  Planner planner(&catalog_);
  XQDB_ASSIGN_OR_RETURN(XQueryPlan plan, planner.PlanXQuery(*parsed.body));
  std::string out = plan.Explain();
  AppendLint(&out, AnalyzeXQuery(parsed, query, &catalog_).Render(query));
  return out;
}

Result<LintReport> Database::LintSql(const std::string& sql) {
  LintReport report;
  if (auto cached = query_cache_.LookupSql(sql, catalog_.version())) {
    report = AnalyzeSqlStatement(cached->stmt, sql, &catalog_);
  } else {
    XQDB_ASSIGN_OR_RETURN(SqlStatement stmt, ParseSql(sql));
    report = AnalyzeSqlStatement(stmt, sql, &catalog_);
  }
  for (Diagnostic& d : report.diagnostics) {
    if (d.fix_edits.empty()) continue;
    std::string fixed = ApplyFixEdits(sql, d.fix_edits);
    auto orig = ExecuteSqlInternal(sql, {}, nullptr);
    auto alt = ExecuteSqlInternal(fixed, {}, nullptr);
    if (orig.ok() && alt.ok() && orig->columns == alt->columns &&
        DisplayRows(*orig) == DisplayRows(*alt)) {
      d.fixed_query = std::move(fixed);
    } else {
      DemoteFix(&d);
    }
  }
  return report;
}

Result<LintReport> Database::LintXQuery(const std::string& query) {
  LintReport report;
  if (auto cached = query_cache_.LookupXQuery(query, catalog_.version())) {
    report = AnalyzeXQuery(cached->parsed, query, &catalog_);
  } else {
    XQDB_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseXQuery(query));
    report = AnalyzeXQuery(parsed, query, &catalog_);
  }
  for (Diagnostic& d : report.diagnostics) {
    if (d.fix_edits.empty()) continue;
    std::string fixed = ApplyFixEdits(query, d.fix_edits);
    auto orig = ExecuteXQueryInternal(query, {});
    auto alt = ExecuteXQueryInternal(fixed, {});
    if (orig.ok() && alt.ok() && orig->rows == alt->rows) {
      d.fixed_query = std::move(fixed);
    } else {
      DemoteFix(&d);
    }
  }
  return report;
}

std::string Database::RenderSqlLint(const std::string& sql) {
  if (auto cached = query_cache_.LookupSql(sql, catalog_.version())) {
    return AnalyzeSqlStatement(cached->stmt, sql, &catalog_).Render(sql);
  }
  auto stmt = ParseSql(sql);
  if (!stmt.ok()) return "";
  return AnalyzeSqlStatement(*stmt, sql, &catalog_).Render(sql);
}

std::string Database::RenderXQueryLint(const std::string& query) {
  if (auto cached = query_cache_.LookupXQuery(query, catalog_.version())) {
    return AnalyzeXQuery(cached->parsed, query, &catalog_).Render(query);
  }
  auto parsed = ParseXQuery(query);
  if (!parsed.ok()) return "";
  return AnalyzeXQuery(*parsed, query, &catalog_).Render(query);
}

Result<ResultSet> Database::RunDeleteStmt(const SelectStmt& victims,
                                          const SelectPlan& plan,
                                          uint64_t write_epoch,
                                          const ExecOptions& options) {
  // Victims are selected at the last committed epoch (everything visible
  // before this statement) and tombstoned at the write epoch, so
  // concurrent pinned readers keep seeing them until this commits.
  SqlExecutor executor(&catalog_, epoch_manager_.current());
  ApplyExecOptions(options, &executor);
  return executor.RunDelete(victims, plan, write_epoch);
}

void Database::VacuumTable(const std::string& table_name) {
  auto table = catalog_.GetTable(table_name);
  if (!table.ok()) return;
  (*table)->VacuumDeferred(epoch_manager_.current(),
                           epoch_manager_.OldestPinned());
}

Result<ResultSet> Database::RunCreateTable(const CreateTableStmt& stmt) {
  XQDB_ASSIGN_OR_RETURN(Table * table,
                        catalog_.CreateTable(stmt.table_name, stmt.columns));
  (void)table;
  return ResultSet{};
}

Result<ResultSet> Database::RunCreateIndex(const CreateIndexStmt& stmt) {
  if (!stmt.is_xml_pattern) {
    // No plan reads a relational index, so none is built.
    return Status::Unsupported("CREATE INDEX " + stmt.index_name +
                               ": only XML value indexes (USING XMLPATTERN) "
                               "are supported");
  }
  XQDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table_name));
  // Backfill keeps deferred-deleted rows a pinned snapshot can still see
  // (delete_epoch > OldestPinned()); the vacuum erases them later.
  XQDB_RETURN_IF_ERROR(table->CreateXmlIndex(
      stmt.index_name, stmt.column_name, stmt.pattern, stmt.xml_type,
      epoch_manager_.OldestPinned()));
  // A new index can flip a cached plan from scan to probe: invalidate.
  catalog_.BumpVersion();
  // Surface the bulk build's Pattern-NFA work: how many nodes matched the
  // XMLPATTERN and how many were tolerantly skipped as uncastable.
  ResultSet rs;
  if (const XmlIndex* idx =
          table->indexes().FindXmlIndexByName(stmt.index_name)) {
    rs.stats.nfa_matches = static_cast<long long>(idx->nfa_match_count());
    rs.stats.cast_failures = static_cast<long long>(idx->cast_skip_count());
  }
  return rs;
}

Result<ResultSet> Database::RunInsert(const InsertStmt& stmt,
                                      uint64_t write_epoch) {
  XQDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table_name));
  for (const std::vector<SqlValue>& row : stmt.rows) {
    if (row.size() != table->columns().size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    std::vector<SqlValue> values;
    std::vector<std::unique_ptr<Document>> docs;
    for (size_t i = 0; i < row.size(); ++i) {
      const ColumnDef& col = table->columns()[i];
      if (col.type == SqlType::kXml) {
        if (row[i].is_null()) {
          docs.push_back(nullptr);
          values.push_back(SqlValue::Null());
        } else if (row[i].kind() == SqlValue::Kind::kVarchar) {
          XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Document> doc,
                                ParseXml(row[i].varchar_value()));
          docs.push_back(std::move(doc));
          values.push_back(SqlValue::Null());  // patched by InsertRow
        } else {
          return Status::InvalidArgument(
              "XML column requires a string literal containing XML");
        }
      } else {
        values.push_back(row[i]);
      }
    }
    XQDB_RETURN_IF_ERROR(
        table->InsertRow(std::move(values), std::move(docs), write_epoch)
            .status());
  }
  return ResultSet{};
}

}  // namespace xqdb
