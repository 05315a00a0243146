#ifndef XQDB_SQL_SCHEMA_H_
#define XQDB_SQL_SCHEMA_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/sql_ast.h"

namespace xqdb {

class Catalog;
class Table;

/// One column of the row a FROM list produces.
struct ColumnSlot {
  std::string qualifier;  // the FROM item's alias
  std::string name;
  size_t item = 0;   // the FROM item's position in the FROM list
  bool xml = false;  // an XML column of a base table
};

inline constexpr int kColumnMissing = -1;
inline constexpr int kColumnAmbiguous = -2;

/// The one column-name rule, applied at run time (EvalScalar, batch
/// kernels) and at plan time (PASSING arguments in the planner and
/// xqlint): the slot named `column` whose FROM item is aliased `qualifier`
/// (any item when `qualifier` is empty). kColumnAmbiguous when several
/// slots match, kColumnMissing when none does.
inline int FindColumnSlot(std::span<const ColumnSlot> slots,
                          const std::string& qualifier,
                          const std::string& column) {
  int found = kColumnMissing;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].name != column) continue;
    if (!qualifier.empty() && slots[i].qualifier != qualifier) continue;
    if (found >= 0) return kColumnAmbiguous;
    found = static_cast<int>(i);
  }
  return found;
}

/// The row layout of a FROM list, as SqlExecutor::Select builds it: each
/// item's columns in FROM order, a base table's from the catalog and an
/// XMLTABLE's from its COLUMNS clause.
struct FromSchema {
  std::vector<ColumnSlot> slots;
  /// Per FROM item: the base table (nullptr for an XMLTABLE).
  std::vector<const Table*> tables;
  /// Per FROM item: its first slot; one more entry, slots.size(), at the
  /// end.
  std::vector<size_t> begin;

  /// The column a PASSING argument names, by FindColumnSlot over the slots
  /// of the first `visible_items` FROM items: every item for WHERE and the
  /// SELECT list, the items before it for an XMLTABLE row expression.
  /// nullptr when `value` is no column reference or does not resolve to
  /// exactly one slot, so an ambiguous or missing name stays unbound and
  /// the executor reports it.
  const ColumnSlot* PassedColumn(const SqlExpr& value,
                                 size_t visible_items) const;
};

/// Builds the FROM schema from the catalog; fails like the executor when a
/// base table does not exist.
Result<FromSchema> BuildFromSchema(const SelectStmt& stmt,
                                   const Catalog& catalog);

}  // namespace xqdb

#endif  // XQDB_SQL_SCHEMA_H_
