#ifndef XQDB_XQUERY_EVALUATOR_H_
#define XQDB_XQUERY_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xdm/item.h"
#include "xquery/ast.h"
#include "xquery/static_context.h"
#include "xquery/structural_join.h"

namespace xqdb {

struct ExecStats;

/// Resolves db2-fn:xmlcolumn('TABLE.COLUMN') references. Implemented by the
/// storage layer; the XQuery engine itself is storage-agnostic.
class XmlColumnProvider {
 public:
  virtual ~XmlColumnProvider() = default;

  /// Returns one node handle per row: the document node of each XML value
  /// in the column. Names arrive uppercased.
  virtual Result<std::vector<NodeHandle>> XmlColumn(
      std::string_view table, std::string_view column) const = 0;
};

/// Owns the documents created by node constructors during one query. Node
/// handles in the query result point into these documents (or into table
/// storage), so the runtime must outlive the result sequence.
class QueryRuntime {
 public:
  QueryRuntime() = default;
  QueryRuntime(const QueryRuntime&) = delete;
  QueryRuntime& operator=(const QueryRuntime&) = delete;

  Document* NewDocument() {
    docs_.push_back(std::make_unique<Document>());
    return docs_.back().get();
  }
  size_t constructed_document_count() const { return docs_.size(); }

 private:
  std::vector<std::unique_ptr<Document>> docs_;
};

/// The focus of evaluation: context item, position and size (XQuery §2.1.2).
struct Focus {
  bool has_item = false;
  Item item;
  long long position = 1;
  long long size = 1;
};

/// Tree-walking evaluator for the xqdb XQuery subset. Single-use per query
/// is not required; Eval() may be called repeatedly (e.g. once per SQL row
/// with different variable bindings).
class Evaluator {
 public:
  Evaluator(const StaticContext* sctx, const XmlColumnProvider* provider,
            QueryRuntime* runtime)
      : sctx_(sctx), provider_(provider), runtime_(runtime) {}

  /// Binds an external variable (SQL/XML `passing` clause).
  void BindVariable(const std::string& name, Sequence value) {
    vars_[name] = std::move(value);
  }

  /// Evaluates the expression with no initial focus.
  Result<Sequence> Eval(const Expr& e);

  /// Evaluates with an explicit initial focus (XMLTable column expressions
  /// evaluate their path with the row item as context).
  Result<Sequence> EvalWithFocus(const Expr& e, const Focus& focus);

  /// Statistics for the benchmarks: how many xmlcolumn documents were
  /// touched by navigation.
  long long docs_navigated() const { return docs_navigated_; }

  /// Sink for structural-join work counters (structural_join_emitted,
  /// intervals_compared). Optional; the evaluator works without one.
  void set_stats(ExecStats* stats) { stats_ = stats; }

  /// Off = the original recursive tree walk instead of interval structural
  /// joins (ExecOptions::disable_structural), the differential baseline.
  void set_structural_enabled(bool enabled) { structural_enabled_ = enabled; }

 private:
  friend struct FnContext;

  Result<Sequence> EvalExpr(const Expr& e, const Focus& f);
  Result<Sequence> EvalFlwor(const Expr& e, const Focus& f);
  Result<Sequence> EvalQuantified(const Expr& e, const Focus& f);
  Result<Sequence> EvalPath(const Expr& e, const Focus& f);
  Result<Sequence> EvalAxisStep(const PathStep& step, const Sequence& input,
                                const Focus& f);
  Result<Sequence> EvalExprStep(const PathStep& step, const Sequence& input,
                                bool first_step, const Focus& outer);
  Result<Sequence> ApplyPredicates(const PathStep& step, Sequence candidates);
  Result<Sequence> EvalArith(const Expr& e, const Focus& f);
  Result<Sequence> EvalSetOp(const Expr& e, const Focus& f);
  Result<Sequence> EvalConstructor(const Expr& e, const Focus& f);
  Result<Sequence> EvalFunctionCall(const Expr& e, const Focus& f);
  Result<Sequence> EvalCast(const Expr& e, const Focus& f);

  /// Appends the string form of one constructor value part run.
  Result<std::string> EvalAttrValue(const std::vector<ConstructorContent>&
                                        parts,
                                    const Focus& f);

  const StaticContext* sctx_;
  const XmlColumnProvider* provider_;
  QueryRuntime* runtime_;
  std::map<std::string, Sequence> vars_;
  long long docs_navigated_ = 0;
  ExecStats* stats_ = nullptr;
  bool structural_enabled_ = true;
};

/// True if the node satisfies the test (axis-independent part: kind + name).
bool NodeMatchesTest(const NodeHandle& h, const NodeTestSpec& test);

/// Deep-copies `src` (and its subtree) as a child/attribute of `parent` in
/// `dst`. `strip_types` resets annotations to untyped (construction mode
/// strip). Returns the new node index.
NodeIdx DeepCopyNode(Document* dst, NodeIdx parent, const NodeHandle& src,
                     bool strip_types);

}  // namespace xqdb

#endif  // XQDB_XQUERY_EVALUATOR_H_
