#include "sql/schema.h"

#include "storage/catalog.h"

namespace xqdb {

const ColumnSlot* FromSchema::PassedColumn(const SqlExpr& value,
                                           size_t visible_items) const {
  if (value.kind != SqlExprKind::kColumnRef) return nullptr;
  std::span<const ColumnSlot> visible(slots.data(), begin[visible_items]);
  const int slot = FindColumnSlot(visible, value.qualifier, value.column);
  return slot < 0 ? nullptr : &slots[static_cast<size_t>(slot)];
}

Result<FromSchema> BuildFromSchema(const SelectStmt& stmt,
                                   const Catalog& catalog) {
  FromSchema schema;
  for (size_t item = 0; item < stmt.from.size(); ++item) {
    const TableRef& ref = stmt.from[item];
    schema.begin.push_back(schema.slots.size());
    if (ref.kind == TableRef::Kind::kBaseTable) {
      XQDB_ASSIGN_OR_RETURN(const Table* table,
                            catalog.GetTable(ref.table_name));
      schema.tables.push_back(table);
      for (const ColumnDef& col : table->columns()) {
        schema.slots.push_back(
            ColumnSlot{ref.alias, col.name, item, col.type == SqlType::kXml});
      }
    } else {
      schema.tables.push_back(nullptr);
      for (const XmlTableColumn& col : ref.columns) {
        schema.slots.push_back(ColumnSlot{ref.alias, col.name, item, false});
      }
    }
  }
  schema.begin.push_back(schema.slots.size());
  return schema;
}

}  // namespace xqdb
