#include "storage/table.h"

#include <algorithm>

#include "common/str_util.h"

namespace xqdb {

Table::Table(std::string name, std::vector<ColumnDef> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  // Slot bookkeeping is fixed at construction (it used to be lazily sized
  // on first insert — a write to shared state that concurrent readers of
  // an empty table could trip over).
  xml_slot_of_column_.assign(columns_.size(), -1);
  int slot = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type == SqlType::kXml) {
      xml_slot_of_column_[i] = slot++;
    }
  }
  for (int s = 0; s < slot; ++s) {
    xml_store_.emplace_back();
    path_summaries_.emplace_back();
  }
}

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<uint32_t> Table::InsertRow(
    std::vector<SqlValue> values,
    std::vector<std::unique_ptr<Document>> xml_docs, uint64_t epoch) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity mismatch for table " + name_ + ": got " +
        std::to_string(values.size()) + ", want " +
        std::to_string(columns_.size()));
  }
  if (meta_.size() >= StableVector<std::vector<SqlValue>>::max_size()) {
    return Status::Unsupported("table " + name_ + " is full (" +
                               std::to_string(meta_.size()) + " row slots)");
  }

  uint32_t row_id = static_cast<uint32_t>(meta_.size());
  size_t doc_cursor = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type != SqlType::kXml) continue;
    int slot = xml_slot_of_column_[i];
    std::unique_ptr<Document> doc;
    if (doc_cursor < xml_docs.size()) {
      doc = std::move(xml_docs[doc_cursor++]);
    }
    if (doc != nullptr) {
      // Maintain every XML index on this column, and the column's path
      // summary (strong DataGuide) — both stay transactionally consistent
      // with the stored documents. Index entries for this still-unpublished
      // row are harmless to concurrent probes: every probe result is
      // post-filtered by VisibleAt, which rejects r >= row_count().
      for (XmlIndex* idx : indexes_.XmlIndexesOn(columns_[i].name)) {
        idx->InsertDocument(row_id, *doc);
      }
      path_summaries_[static_cast<size_t>(slot)].AddDocument(row_id, *doc);
      values[i] = SqlValue::Xml(
          Sequence{Item(NodeHandle{doc.get(), doc->root()})});
    } else {
      values[i] = SqlValue::Null();
    }
    xml_store_[static_cast<size_t>(slot)].EmplaceBack(std::move(doc));
  }
  // Publication order matters: documents and values first, meta_ last.
  // meta_.size() is the published row count readers gate on.
  rows_.EmplaceBack(std::move(values));
  meta_.EmplaceBack(epoch);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  return row_id;
}

Status Table::DeleteRow(uint32_t r, uint64_t epoch) {
  if (r >= meta_.size()) {
    return Status::InvalidArgument("row id out of range");
  }
  RowMeta& m = meta_[r];
  if (m.delete_epoch.load(std::memory_order_relaxed) != kEpochNone) {
    return Status::OK();
  }
  m.delete_epoch.store(epoch, std::memory_order_release);
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  // Physical index-entry removal is deferred: a reader pinned before
  // `epoch` must keep finding this row through the indexes until its pin
  // drains. VacuumDeferred picks it up once no snapshot can see it.
  MutexLock lock(deferred_mu_);
  deferred_.push_back(r);
  return Status::OK();
}

void Table::UnindexRow(uint32_t r) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type != SqlType::kXml) continue;
    const Document* doc = xml_document(r, static_cast<int>(i));
    if (doc == nullptr) continue;
    for (XmlIndex* idx : indexes_.XmlIndexesOn(columns_[i].name)) {
      idx->EraseDocument(r, *doc);
    }
    int slot = xml_slot_of_column_[i];
    path_summaries_[static_cast<size_t>(slot)].RemoveDocument(r, *doc);
  }
}

void Table::VacuumDeferred(uint64_t committed_epoch, uint64_t oldest_pinned) {
  uint64_t horizon = std::min(committed_epoch, oldest_pinned);
  std::vector<uint32_t> ready;
  {
    MutexLock lock(deferred_mu_);
    auto keep = deferred_.begin();
    for (uint32_t r : deferred_) {
      uint64_t d = meta_[r].delete_epoch.load(std::memory_order_acquire);
      if (d <= horizon) {
        ready.push_back(r);
      } else {
        *keep++ = r;
      }
    }
    deferred_.erase(keep, deferred_.end());
  }
  // Unindex outside deferred_mu_: index writers take their own leaf locks.
  for (uint32_t r : ready) UnindexRow(r);
}

size_t Table::deferred_unindex_count() const {
  MutexLock lock(deferred_mu_);
  return deferred_.size();
}

const Document* Table::xml_document(uint32_t row, int column) const {
  if (column < 0 || static_cast<size_t>(column) >= columns_.size()) {
    return nullptr;
  }
  int slot = xml_slot_of_column_[static_cast<size_t>(column)];
  if (slot < 0) return nullptr;
  return xml_store_[static_cast<size_t>(slot)][row].get();
}

const PathSummary* Table::path_summary(const std::string& column) const {
  int col = ColumnIndex(column);
  if (col < 0) return nullptr;
  int slot = xml_slot_of_column_[static_cast<size_t>(col)];
  if (slot < 0) return nullptr;
  return &path_summaries_[static_cast<size_t>(slot)];
}

Status Table::CreateXmlIndex(const std::string& index_name,
                             const std::string& column,
                             const std::string& pattern, IndexValueType type,
                             uint64_t keep_deleted_after) {
  int col = ColumnIndex(column);
  if (col < 0) {
    return Status::NotFound("column " + column + " in table " + name_);
  }
  if (columns_[static_cast<size_t>(col)].type != SqlType::kXml) {
    return Status::InvalidArgument("XMLPATTERN index requires an XML column");
  }
  XQDB_ASSIGN_OR_RETURN(XmlIndex idx,
                        XmlIndex::Create(index_name, pattern, type));
  // Backfill: pattern matching + casting run per document on the thread
  // pool, then one sorted bulk load into the B-tree. Includes rows that a
  // still-pinned snapshot can see (delete_epoch > keep_deleted_after) so
  // pinned readers may use the new index too; the deferred vacuum erases
  // those entries once the pins drain.
  std::vector<std::pair<uint32_t, const Document*>> docs;
  size_t n = meta_.size();
  docs.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    uint64_t d = meta_[r].delete_epoch.load(std::memory_order_acquire);
    if (d != kEpochNone && d <= keep_deleted_after) continue;
    const Document* doc = xml_document(r, col);
    if (doc != nullptr) docs.emplace_back(r, doc);
  }
  idx.BulkBuild(docs);
  return indexes_.AddXmlIndex(column, std::move(idx));
}

}  // namespace xqdb
