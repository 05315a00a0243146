#ifndef XQDB_STORAGE_CATALOG_H_
#define XQDB_STORAGE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/table.h"
#include "xquery/evaluator.h"

namespace xqdb {

/// The database catalog: tables by (uppercase) name. Also implements the
/// XQuery engine's XmlColumnProvider so db2-fn:xmlcolumn('T.C') resolves to
/// stored documents.
///
/// Thread safety: the name -> table map is guarded by an internal
/// SharedMutex (DDL writes, lookups read). Table objects are pointer-stable
/// (unique_ptr in the map, never erased) and internally synchronized, so
/// handed-out Table* stay valid and usable without the catalog lock.
class Catalog : public XmlColumnProvider {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Result<Table*> CreateTable(const std::string& name,
                             std::vector<ColumnDef> columns)
      XQDB_EXCLUDES(mu_);
  Result<Table*> GetTable(const std::string& name) XQDB_EXCLUDES(mu_);
  Result<const Table*> GetTable(const std::string& name) const
      XQDB_EXCLUDES(mu_);
  std::vector<const Table*> AllTables() const XQDB_EXCLUDES(mu_);

  // XmlColumnProvider: resolves against the latest published rows.
  Result<std::vector<NodeHandle>> XmlColumn(
      std::string_view table, std::string_view column) const override;

  /// XmlColumn as of a snapshot epoch: only rows visible at `epoch`
  /// contribute documents. kEpochLatest reproduces XmlColumn().
  Result<std::vector<NodeHandle>> XmlColumnAt(std::string_view table,
                                              std::string_view column,
                                              uint64_t epoch) const;

  /// DDL generation counter. Bumped by every CREATE TABLE / CREATE INDEX;
  /// the compiled-query cache tags entries with the version they were
  /// planned under and discards them when it moves (a new index can make a
  /// previously scan-bound query index-eligible). DML does not bump it:
  /// cached plans probe indexes at execution time, so inserts and deletes
  /// never make a cached plan incorrect — only, at worst, cost-stale.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  mutable SharedMutex mu_{"storage.catalog", LockRank::kCatalog};
  std::map<std::string, std::unique_ptr<Table>> tables_ XQDB_GUARDED_BY(mu_);
  std::atomic<uint64_t> version_{0};
};

/// A provider view that pins every xmlcolumn() resolution to one snapshot
/// epoch — what a server session's read statement evaluates against while
/// concurrent DML advances the database epoch.
class SnapshotProvider : public XmlColumnProvider {
 public:
  SnapshotProvider(const Catalog* base, uint64_t epoch)
      : base_(base), epoch_(epoch) {}

  Result<std::vector<NodeHandle>> XmlColumn(
      std::string_view table, std::string_view column) const override {
    return base_->XmlColumnAt(table, column, epoch_);
  }

  uint64_t epoch() const { return epoch_; }

 private:
  const Catalog* base_;
  uint64_t epoch_;
};

/// A provider view that restricts one (table, column) to a set of rows —
/// how an eligible index pre-filters a standalone XQuery per Definition 1:
/// Q(D) == Q(I(P, D)). Row visibility is checked against the snapshot
/// epoch, so index entries for rows outside the snapshot drop out.
class FilteredProvider : public XmlColumnProvider {
 public:
  FilteredProvider(const Catalog* base, std::string table, std::string column,
                   std::vector<uint32_t> rows, uint64_t epoch = kEpochLatest)
      : base_(base), table_(std::move(table)), column_(std::move(column)),
        rows_(std::move(rows)), epoch_(epoch) {}

  Result<std::vector<NodeHandle>> XmlColumn(
      std::string_view table, std::string_view column) const override;

 private:
  const Catalog* base_;
  std::string table_;
  std::string column_;
  std::vector<uint32_t> rows_;
  uint64_t epoch_;
};

}  // namespace xqdb

#endif  // XQDB_STORAGE_CATALOG_H_
