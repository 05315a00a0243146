#ifndef XQDB_CORE_DATABASE_H_
#define XQDB_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "common/epoch.h"
#include "common/result.h"
#include "core/exec_options.h"
#include "core/query_cache.h"
#include "sql/executor.h"
#include "sql/sql_parser.h"
#include "storage/catalog.h"

namespace xqdb {

/// The xqdb public facade: a single-process XML database with SQL/XML and
/// standalone XQuery front ends, XML value indexes, and an EXPLAIN facility
/// that narrates index eligibility (the paper's subject matter).
///
/// Typical use:
///
///   Database db;
///   db.ExecuteSql("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
///   db.ExecuteSql("CREATE INDEX li_price ON orders(orddoc) "
///                 "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
///   db.ExecuteSql("INSERT INTO orders VALUES (1, '<order>...</order>')");
///   auto rs = db.ExecuteSql(
///       "SELECT ordid FROM orders WHERE XMLEXISTS('$o//lineitem"
///       "[@price > 100]' passing orddoc as \"o\")");
///   auto plan = db.ExplainSql("SELECT ...");
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Executes one SQL statement. DDL/DML return an empty ResultSet with a
  /// populated `message` column convention: zero columns, zero rows.
  /// `options` forces plan shapes (collection scan, cold compile) — the
  /// differential harness's hooks; the defaults are the serving path.
  Result<ResultSet> ExecuteSql(const std::string& sql,
                               const ExecOptions& options = {});

  /// EXPLAIN: parses and plans the statement, returns the access-path
  /// narration without executing.
  Result<std::string> ExplainSql(const std::string& sql);

  /// EXPLAIN ANALYZE: executes the statement and returns the access-path
  /// narration annotated with the runtime counters and phase timings it
  /// actually accumulated (observability/exec_stats.h). This is how the
  /// paper's Definition 1 claim is audited at execution time: the eligible
  /// plan reports index_docs_returned == |matching docs|, the ineligible
  /// one reports docs_scanned == |collection|.
  Result<std::string> ExplainAnalyzeSql(const std::string& sql,
                                        const ExecOptions& options = {});
  Result<std::string> ExplainAnalyzeXQuery(const std::string& query,
                                           const ExecOptions& options = {});

  /// Result of a standalone XQuery (the paper's Query 7 interface): one row
  /// per top-level item.
  struct XQueryResult {
    std::vector<std::string> rows;  // serialized items
    Sequence items;
    std::shared_ptr<QueryRuntime> runtime;
    std::string plan;
    ExecStats stats;
  };

  Result<XQueryResult> ExecuteXQuery(const std::string& query,
                                     const ExecOptions& options = {});
  Result<std::string> ExplainXQuery(const std::string& query);

  /// Lints one statement against the paper's pitfall catalog (Tips 1–12)
  /// and explains, per candidate index, which Definition 1 clause keeps it
  /// from serving each extracted predicate. Reuses the compiled-query
  /// cache's AST when the query was executed before. Fix-its are verified
  /// by differential execution — a candidate rewrite survives (as
  /// Diagnostic::fixed_query) only if running both forms yields identical
  /// results; non-equivalent candidates are dropped to a suggestion.
  Result<LintReport> LintSql(const std::string& sql);
  Result<LintReport> LintXQuery(const std::string& query);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Snapshot/epoch machinery (server sessions pin snapshots here; tests
  /// inspect the committed epoch).
  EpochManager& epoch_manager() { return epoch_manager_; }

  /// Compiled-query cache counters (tests / monitoring).
  QueryCache::Stats query_cache_stats() const { return query_cache_.stats(); }

 private:
  /// The shared execution core: parse → plan → run with phase timings
  /// metered into the result's ExecStats. When `plan_text` is non-null the
  /// rendered access-path narration is stored there (from the cache entry
  /// on a hit, from the fresh plan otherwise) — EXPLAIN ANALYZE's hook.
  Result<ResultSet> ExecuteSqlInternal(const std::string& sql,
                                       const ExecOptions& options,
                                       std::string* plan_text);
  Result<XQueryResult> ExecuteXQueryInternal(const std::string& query,
                                             const ExecOptions& options);

  /// Builds and routes the QueryTrace record for one finished execution
  /// (trace sink + slow-query log).
  template <typename ResultT>
  void EmitQueryTrace(const char* kind, const std::string& text,
                      const std::string& plan, const ExecOptions& options,
                      const ResultT& result);

  Result<ResultSet> RunCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> RunCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> RunInsert(const InsertStmt& stmt, uint64_t write_epoch);
  /// DELETE: tombstones the rows `victims` (the statement's SELECT * FROM
  /// t [WHERE c]) selects under `plan`, with the same ExecOptions switches
  /// a SELECT honours. Runs under the caller's write ticket.
  Result<ResultSet> RunDeleteStmt(const SelectStmt& victims,
                                  const SelectPlan& plan,
                                  uint64_t write_epoch,
                                  const ExecOptions& options);

  /// Physically erases index entries of rows no live or future snapshot
  /// can see (called at the start and commit of write statements touching
  /// `table_name`; a no-op when nothing is deferred).
  void VacuumTable(const std::string& table_name);

  /// Executes a compiled SELECT / XQuery (shared by the cache-hit and
  /// freshly-compiled paths). `options` carries only the runtime switches
  /// here (disable_structural/batch/static); plan forcing happened at plan
  /// time.
  Result<ResultSet> RunSelect(const SelectStmt& stmt, const SelectPlan& plan,
                              const ExecOptions& options);
  Result<XQueryResult> RunXQuery(const ParsedQuery& parsed,
                                 const XQueryPlan& plan,
                                 const ExecOptions& options);

  /// Unverified lint (no fix execution) rendered for EXPLAIN output;
  /// empty string when there is nothing to report or the text won't parse.
  std::string RenderSqlLint(const std::string& sql);
  std::string RenderXQueryLint(const std::string& query);

  Catalog catalog_;
  QueryCache query_cache_;
  EpochManager epoch_manager_;
};

}  // namespace xqdb

#endif  // XQDB_CORE_DATABASE_H_
