#ifndef XQDB_INDEX_INDEX_MANAGER_H_
#define XQDB_INDEX_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "index/xml_index.h"

namespace xqdb {

/// Per-table registry of XML value indexes, keyed by the column they
/// index.
///
/// Thread safety: the registry map is guarded by an internal
/// SharedMutex — AddXmlIndex writes, the listing/lookup methods read. The
/// index objects themselves are pointer-stable (unique_ptr in the map) and
/// internally locked, so the pointers handed out stay valid and usable
/// without the registry lock.
class IndexManager {
 public:
  IndexManager() = default;
  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  Status AddXmlIndex(const std::string& column, XmlIndex index)
      XQDB_EXCLUDES(mu_);

  /// All XML indexes on `column` (candidates for eligibility checks).
  std::vector<const XmlIndex*> XmlIndexesOn(const std::string& column) const
      XQDB_EXCLUDES(mu_);
  /// The same, writable: maintenance of a `column` document on insert and
  /// vacuum touches these indexes and no other.
  std::vector<XmlIndex*> XmlIndexesOn(const std::string& column)
      XQDB_EXCLUDES(mu_);

  const XmlIndex* FindXmlIndexByName(const std::string& name) const
      XQDB_EXCLUDES(mu_);

 private:
  const XmlIndex* FindXmlIndexByNameLocked(const std::string& name) const
      XQDB_REQUIRES_SHARED(mu_);

  mutable SharedMutex mu_{"index.manager", LockRank::kIndexManager};
  std::map<std::string, std::vector<std::unique_ptr<XmlIndex>>> xml_indexes_
      XQDB_GUARDED_BY(mu_);
};

}  // namespace xqdb

#endif  // XQDB_INDEX_INDEX_MANAGER_H_
