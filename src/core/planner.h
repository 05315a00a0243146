#ifndef XQDB_CORE_PLANNER_H_
#define XQDB_CORE_PLANNER_H_

#include <string>
#include <vector>

#include "analysis/static_types.h"
#include "common/result.h"
#include "sql/plan.h"
#include "sql/schema.h"
#include "sql/sql_ast.h"
#include "storage/catalog.h"

namespace xqdb {

/// Chooses access paths by running the eligibility analysis over every
/// filtering context of a statement:
///
///  - WHERE conjuncts that are XMLEXISTS over one table's XML column
///    (paper §3.2, Query 8) — filtering;
///  - XMLTABLE row-producing expressions over a passed column (Query 11) —
///    filtering for the *passed* table;
///  - XMLQUERY in the SELECT list (Query 5) and XMLTABLE column paths
///    (Query 12) — never filtering; reported as notes;
///  - standalone XQuery bodies over db2-fn:xmlcolumn sources (Queries 1/7).
class Planner {
 public:
  explicit Planner(const Catalog* catalog) : catalog_(catalog) {}

  /// Off (ExecOptions::disable_static), the planner emits no StaticFold
  /// entries and never marks a plan STATIC EMPTY — the unoptimized shape
  /// the differential oracle runs.
  void set_static_enabled(bool enabled) { static_enabled_ = enabled; }

  Result<SelectPlan> PlanSelect(const SelectStmt& stmt) const;

  /// Standalone XQuery: picks (at most) one pre-filtering index probe over
  /// one xmlcolumn source (Definition 1 composes, but one probe captures
  /// the paper's experiments).
  Result<XQueryPlan> PlanXQuery(const Expr& body) const;

 private:
  /// The static type/cardinality fold pass (DESIGN.md §13): for every
  /// top-level WHERE conjunct that is XMLEXISTS over base-table XML
  /// columns, infers the body's static type and records a StaticFold when
  /// the conjunct's truth value is proven and the body cannot raise. A
  /// false first conjunct over an all-base-table FROM additionally marks
  /// the plan STATIC EMPTY.
  void FoldStaticConjuncts(const SelectStmt& stmt, const FromSchema& schema,
                           const std::vector<const SqlExpr*>& conjuncts,
                           SelectPlan* plan) const;

  const Catalog* catalog_;
  bool static_enabled_ = true;
};

/// Collects the distinct db2-fn:xmlcolumn sources in an expression tree.
std::vector<std::pair<std::string, std::string>> CollectXmlColumnSources(
    const Expr& e);

}  // namespace xqdb

#endif  // XQDB_CORE_PLANNER_H_
