#ifndef XQDB_TESTING_DIFFERENTIAL_H_
#define XQDB_TESTING_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "testing/query_gen.h"

namespace xqdb {
namespace testing {

struct DiffOptions {
  /// Worker threads for the parallel-vs-serial oracle (0 disables it).
  int threads = 4;
  bool verbose = false;
};

/// One detected disagreement. `oracle` is the equivalence that broke:
///   "index-vs-scan"           planner-chosen plan vs forced collection scan
///   "structural-vs-recursive" interval structural joins vs recursive walk
///   "batch-vs-row"            vectorized batch kernels vs row-at-a-time
///   "static-vs-unoptimized"   static type/cardinality folds vs evaluating
///                             every conjunct (disable_static)
///   "parallel-vs-serial"      XQDB_THREADS=N vs the inline pool
///   "cached-vs-cold"          compiled-query-cache replay vs cold compile
///   "delete-probe-vs-scan"    the scenario's DML on planned access paths
///                             vs forced scans: each statement's outcome
///                             and every table's surviving rows
///   "expectation"             corpus-pinned outcome vs the serial cold run
///   "baddoc-accepted"         the XML parser accepted a corpus `baddoc:`
struct Divergence {
  std::string oracle;
  std::string phase;  // "initial", "dml" or "post-dml"
  GenQuery query;     // empty text for baddoc divergences
  std::string detail;
};

/// Every oracle RunScenario checks, by Divergence::oracle name.
std::vector<std::string> OracleNames();

/// Loads the scenario into a fresh Database and checks every query under
/// every oracle, twice: once cold and once after the scenario's DML epoch
/// (so phase-A cache entries are replayed stale — DML deliberately does
/// not bump the catalog version). The DML itself runs against a twin
/// database as well, with forced scans (the delete-probe-vs-scan oracle).
/// Restores the global thread pool before returning.
std::vector<Divergence> RunScenario(const DiffScenario& scenario,
                                    const DiffOptions& options);

/// Greedy test-case minimizer: repeatedly tries structural shrinks (drop a
/// query / DDL / DML / extra doc, shrink the workload) and textual shrinks
/// (delete a bracketed predicate, split conjunctions), keeping any
/// candidate that still produces a divergence on `oracle`. Spends at most
/// `max_evals` scenario executions.
DiffScenario MinimizeScenario(const DiffScenario& scenario,
                              const DiffOptions& options,
                              const std::string& oracle, int max_evals = 150);

/// Line-oriented corpus format (tests/corpus/*.xqd):
///   # comment
///   seed: 42            orders: 32        customers: 8      products: 20
///   lineitems_max: 3    multi_price: 0.3  string_price: 0   canadian: 0.25
///   namespaces: 0
///   ddl: CREATE INDEX ...
///   doc: <order>...</order>
///   baddoc: <order>&#xD800;</order>
///   xquery: for $o in ...      (or  sql: SELECT ...)
///   expect: row1\nrow2\n       (optional, binds to the preceding query)
///   dml: DELETE FROM orders ...
/// `expect` escapes newline as the two characters \n and backslash as \\.
std::string SerializeScenario(const DiffScenario& scenario,
                              const std::string& comment);
Result<DiffScenario> ParseScenarioText(const std::string& text);
Result<DiffScenario> LoadScenarioFile(const std::string& path);
Status SaveScenarioFile(const DiffScenario& scenario, const std::string& path,
                        const std::string& comment);

/// The canonical outcome RunScenario compares (and `expect` pins): rows
/// newline-joined for success, "ERROR: <Status::ToString()>" for failure.
/// Runs the query serial + cold against a fresh database loaded with the
/// scenario's workload/ddl/docs (pre-DML). Exposed so tests and xqdiff
/// --replay can print or pin outcomes.
std::string CanonicalOutcome(const DiffScenario& scenario, const GenQuery& q);

}  // namespace testing
}  // namespace xqdb

#endif  // XQDB_TESTING_DIFFERENTIAL_H_
