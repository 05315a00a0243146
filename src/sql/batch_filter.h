#ifndef XQDB_SQL_BATCH_FILTER_H_
#define XQDB_SQL_BATCH_FILTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "observability/exec_stats.h"
#include "sql/schema.h"
#include "sql/sql_ast.h"
#include "storage/value.h"
#include "xdm/compare.h"
#include "xpath/pattern_nfa.h"

namespace xqdb {

/// The rows a WHERE clause reads, by reference: table storage for a
/// base-table scan, combined rows for join and XMLTABLE steps.
using RowRefs = std::vector<const std::vector<SqlValue>*>;

/// One vectorizable WHERE conjunct, compiled from a provably-equivalent
/// XMLEXISTS shape (see CompileBatchProgram). The embedded XQuery
///
///   $v//a/b[@k > c]        (passing <xml column> as "v")
///
/// is compiled to the linear pattern //a/b/@k plus a comparison kernel
/// (op, c): the per-row verdict is computed by streaming the document
/// through the pattern NFA and comparing gathered key values — no
/// Evaluator construction, no variable binding, no Focus/Sequence
/// allocation per row.
struct BatchKernel {
  std::shared_ptr<const PatternNfa> nfa;  // combined target-path pattern
  bool has_compare = false;  // false: pure existence kernel
  CompareOp op = CompareOp::kEq;
  double literal = 0.0;  // numeric comparison constant
  int xml_slot = -1;     // schema slot of the passed XML column
  std::string pattern_text;  // diagnostics
};

/// One WHERE conjunct in execution order: the original expression (always
/// present — residual evaluation and exact-semantics fallback) plus the
/// vectorized kernel when the conjunct is batchable.
struct BatchStep {
  const SqlExpr* conjunct = nullptr;
  std::optional<BatchKernel> kernel;
};

/// An ordered conjunct program for one WHERE clause. Conjuncts execute
/// left-to-right over a narrowing selection vector, which reproduces SQL
/// AND short-circuit semantics exactly (a row rejected by conjunct i never
/// evaluates conjunct i+1).
struct BatchProgram {
  std::vector<BatchStep> steps;
  bool any_kernel = false;
};

/// Splits `where` into conjuncts and compiles each into a BatchKernel where
/// the shape provably matches row-at-a-time semantics; all other conjuncts
/// stay as residual expressions. The passed XML column resolves over
/// `schema` by FindColumnSlot, so an ambiguous or unresolved reference
/// stays un-batched and the exact path reports its error. Returns a
/// program with any_kernel=false when nothing vectorizes.
BatchProgram CompileBatchProgram(const SqlExpr& where,
                                 std::span<const ColumnSlot> schema);

/// Per-value gather flags (ValueBatch::flags).
inline constexpr uint8_t kBatchValueTypedFail = 1u << 0;   // Atomize error
inline constexpr uint8_t kBatchValueCastFail = 1u << 1;    // FORG0001
inline constexpr uint8_t kBatchValueUnsupported = 1u << 2; // typed, non-dbl

/// Per-row verdicts (RunBatchKernel output).
inline constexpr uint8_t kBatchRowFalse = 0;
inline constexpr uint8_t kBatchRowTrue = 1;
inline constexpr uint8_t kBatchRowFallback = 2;  // needs exact row eval

/// Columnar scratch for one batch: gathered key values in document order
/// (all rows of the batch concatenated, CSR row offsets), the context
/// (parent) node of each value for per-context-node short-circuit grouping,
/// and per-value failure flags. Buffers are reused across batches — the
/// per-batch arena.
struct ValueBatch {
  std::vector<double> values;
  std::vector<NodeIdx> groups;    // parent node of the gathered value
  std::vector<uint8_t> flags;     // kBatchValue* bits; value valid iff 0
  std::vector<uint32_t> row_begin;  // CSR: row i's values/groups/flags are
                                    // [row_begin[i], row_begin[i+1])
  std::vector<uint8_t> row_flags;   // kBatchRow* pre-verdicts from gather
  void Reset() {
    values.clear();
    groups.clear();
    flags.clear();
    row_begin.clear();
    row_flags.clear();
  }
};

/// Rows per kernel invocation: large enough to amortize the pattern-NFA
/// setup, small enough that the gathered value columns stay cache-resident.
inline constexpr size_t kBatchRows = 256;

/// Evaluates `kernel` over `rows[sel[...]]`, writing one verdict per
/// selected row into `verdicts` (parallel to `sel`). Rows whose exact
/// outcome the kernel cannot prove — a cast failure the row-at-a-time path
/// would turn into a query error, an unexpected cell shape, a
/// schema-annotated value outside the kernel's type domain — get
/// kBatchRowFallback; the caller must re-evaluate those rows with the exact
/// row-at-a-time predicate so results and error messages are
/// indistinguishable from batch-off execution. Counts batches_executed and
/// batch_rows into `stats`.
void RunBatchKernel(const BatchKernel& kernel, const RowRefs& rows,
                    const std::vector<uint32_t>& sel, ValueBatch* scratch,
                    std::vector<uint8_t>* verdicts, ExecStats* stats);

}  // namespace xqdb

#endif  // XQDB_SQL_BATCH_FILTER_H_
