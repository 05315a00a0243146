#include "storage/catalog.h"

#include "common/str_util.h"

namespace xqdb {

Result<Table*> Catalog::CreateTable(const std::string& name,
                                    std::vector<ColumnDef> columns) {
  std::string key = ToUpperAscii(name);
  WriterMutexLock lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table " + key + " already exists");
  }
  auto table = std::make_unique<Table>(key, std::move(columns));
  Table* ptr = table.get();
  tables_.emplace(std::move(key), std::move(table));
  BumpVersion();
  return ptr;
}

Result<Table*> Catalog::GetTable(const std::string& name) {
  ReaderMutexLock lock(mu_);
  auto it = tables_.find(ToUpperAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("table " + ToUpperAscii(name) + " does not exist");
  }
  return it->second.get();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  ReaderMutexLock lock(mu_);
  auto it = tables_.find(ToUpperAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("table " + ToUpperAscii(name) + " does not exist");
  }
  return static_cast<const Table*>(it->second.get());
}

std::vector<const Table*> Catalog::AllTables() const {
  ReaderMutexLock lock(mu_);
  std::vector<const Table*> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(table.get());
  return out;
}

Result<std::vector<NodeHandle>> Catalog::XmlColumn(
    std::string_view table, std::string_view column) const {
  return XmlColumnAt(table, column, kEpochLatest);
}

Result<std::vector<NodeHandle>> Catalog::XmlColumnAt(std::string_view table,
                                                     std::string_view column,
                                                     uint64_t epoch) const {
  XQDB_ASSIGN_OR_RETURN(const Table* t, GetTable(std::string(table)));
  int col = t->ColumnIndex(ToUpperAscii(column));
  if (col < 0) {
    return Status::NotFound("column " + std::string(column) + " in table " +
                            std::string(table));
  }
  if (t->columns()[static_cast<size_t>(col)].type != SqlType::kXml) {
    return Status::InvalidArgument("db2-fn:xmlcolumn requires an XML column");
  }
  std::vector<NodeHandle> out;
  size_t n = t->row_count();
  out.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    if (!t->VisibleAt(r, epoch)) continue;
    const Document* doc = t->xml_document(r, col);
    if (doc != nullptr) {
      out.push_back(NodeHandle{doc, doc->root()});
    }
  }
  return out;
}

Result<std::vector<NodeHandle>> FilteredProvider::XmlColumn(
    std::string_view table, std::string_view column) const {
  if (ToUpperAscii(table) != table_ || ToUpperAscii(column) != column_) {
    return base_->XmlColumnAt(table, column, epoch_);
  }
  XQDB_ASSIGN_OR_RETURN(const Table* t, base_->GetTable(table_));
  int col = t->ColumnIndex(column_);
  if (col < 0) {
    return Status::NotFound("column " + column_ + " in table " + table_);
  }
  std::vector<NodeHandle> out;
  out.reserve(rows_.size());
  for (uint32_t r : rows_) {
    if (!t->VisibleAt(r, epoch_)) continue;
    const Document* doc = t->xml_document(r, col);
    if (doc != nullptr) {
      out.push_back(NodeHandle{doc, doc->root()});
    }
  }
  return out;
}

}  // namespace xqdb
