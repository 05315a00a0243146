#ifndef XQDB_STORAGE_TABLE_H_
#define XQDB_STORAGE_TABLE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/stable_vector.h"
#include "index/index_manager.h"
#include "index/path_summary.h"
#include "storage/value.h"
#include "xml/document.h"

namespace xqdb {

/// An in-memory table with typed columns. XML columns store parsed Document
/// trees owned by the table; scalar values live inline. Each XML column's
/// indexes are maintained synchronously on insert (the paper's
/// transactional-maintenance model, minus the transactions).
///
/// Concurrency model (the server's snapshot reads): rows live in
/// append-only StableVectors, so row storage never moves and a single
/// writer appends while readers scan lock-free. Every row carries
/// (insert_epoch, delete_epoch) stamps; a reader pinned at epoch E sees the
/// row iff insert_epoch <= E < delete_epoch (VisibleAt). The write side is
/// serialized by the Database's EpochManager; a row's slot is published by
/// the append to meta_ — the LAST step of InsertRow — so any row id below
/// row_count() is fully materialized (documents, values, index entries).
///
/// Deletes are logical-first: DeleteRow stamps delete_epoch and queues the
/// row; the physical index/summary entry removal (vacuum) runs later via
/// VacuumDeferred once no pinned snapshot can still see the row. Stale
/// entries between delete and vacuum are correctness-neutral — every index
/// probe is post-filtered by VisibleAt.
class Table {
 public:
  Table(std::string name, std::vector<ColumnDef> columns);
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Column index by (uppercase) name, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Physical row slots (deleted rows keep their slot; ids stay stable).
  /// This is the publication point: slots below the returned count are
  /// fully constructed.
  size_t row_count() const { return meta_.size(); }
  /// Rows not deleted (at latest).
  size_t live_row_count() const {
    return live_rows_.load(std::memory_order_relaxed);
  }
  bool is_deleted(uint32_t r) const {
    return r < meta_.size() &&
           meta_[r].delete_epoch.load(std::memory_order_acquire) != kEpochNone;
  }

  /// Snapshot visibility: does the reader pinned at `epoch` see row `r`?
  /// Unpublished slots (r >= row_count()) are invisible. kEpochLatest sees
  /// exactly the not-yet-deleted committed rows.
  bool VisibleAt(uint32_t r, uint64_t epoch) const {
    if (r >= meta_.size()) return false;
    const RowMeta& m = meta_[r];
    return m.insert_epoch <= epoch &&
           epoch < m.delete_epoch.load(std::memory_order_acquire);
  }

  /// Logically deletes one row: stamps delete_epoch = `epoch` and defers
  /// the physical index/summary entry removal to VacuumDeferred. Epoch is
  /// the deleting statement's write epoch (see EpochManager).
  Status DeleteRow(uint32_t r, uint64_t epoch);

  /// Physically removes index/summary entries of rows whose deletion no
  /// snapshot can still observe: delete_epoch <= committed_epoch (the
  /// deleting statement committed) and delete_epoch <= oldest_pinned (no
  /// pinned reader predates it; any future pin starts at >= committed).
  /// Called by the Database after each write commit and before each write
  /// statement. Single-writer context only.
  void VacuumDeferred(uint64_t committed_epoch, uint64_t oldest_pinned);

  /// Rows awaiting vacuum (observability / tests).
  size_t deferred_unindex_count() const XQDB_EXCLUDES(deferred_mu_);

  /// Inserts one row stamped with insert_epoch = `epoch`. For XML columns
  /// the matching entry of `xml_docs` holds the parsed document; `values`
  /// holds SqlValue::Null() in that position and is patched to reference
  /// the stored document. Single-writer context only; the default epoch 1
  /// (the initial committed epoch) makes bulk loads visible to every
  /// snapshot.
  Result<uint32_t> InsertRow(std::vector<SqlValue> values,
                             std::vector<std::unique_ptr<Document>> xml_docs,
                             uint64_t epoch = 1);

  const std::vector<SqlValue>& row(uint32_t r) const {
    return rows_[static_cast<size_t>(r)];
  }

  /// The stored document of an XML column cell (nullptr if NULL).
  const Document* xml_document(uint32_t row, int column) const;

  /// The strong DataGuide over one XML column's stored documents,
  /// maintained incrementally with every insert/delete alongside the XML
  /// value indexes. nullptr for non-XML columns.
  const PathSummary* path_summary(const std::string& column) const;

  IndexManager& indexes() { return indexes_; }
  const IndexManager& indexes() const { return indexes_; }

  /// Creates an XML value index over an XML column and backfills it from
  /// existing rows. Besides live rows, the backfill includes
  /// deleted-but-not-vacuumed rows whose delete_epoch > keep_deleted_after
  /// — rows a still-pinned snapshot can see; the deferred vacuum erases
  /// them from this index like any other once the pins drain.
  Status CreateXmlIndex(const std::string& index_name,
                        const std::string& column, const std::string& pattern,
                        IndexValueType type,
                        uint64_t keep_deleted_after = kEpochLatest);

 private:
  struct RowMeta {
    explicit RowMeta(uint64_t insert) : insert_epoch(insert) {}
    const uint64_t insert_epoch;
    std::atomic<uint64_t> delete_epoch{kEpochNone};
  };

  /// Removes row r's entries from every XML index and path summary (the
  /// physical half of a delete).
  void UnindexRow(uint32_t r);

  std::string name_;
  std::vector<ColumnDef> columns_;
  StableVector<std::vector<SqlValue>> rows_;
  StableVector<RowMeta> meta_;
  std::atomic<size_t> live_rows_{0};
  // xml_store_[col_slot][row]: owned documents for each XML column. The
  // col_slot is the ordinal among XML columns. deque: StableVector and
  // PathSummary are non-movable, deque constructs them in place and never
  // relocates.
  std::deque<StableVector<std::unique_ptr<Document>>> xml_store_;
  std::vector<int> xml_slot_of_column_;      // per column: slot or -1
  std::deque<PathSummary> path_summaries_;   // parallel to xml_store_

  mutable Mutex deferred_mu_{"table.deferred", LockRank::kTableDeferred};
  std::vector<uint32_t> deferred_ XQDB_GUARDED_BY(deferred_mu_);

  IndexManager indexes_;
};

}  // namespace xqdb

#endif  // XQDB_STORAGE_TABLE_H_
