#ifndef XQDB_XML_QNAME_H_
#define XQDB_XML_QNAME_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.h"
#include "common/result.h"
#include "common/stable_vector.h"
#include "common/thread_annotations.h"

namespace xqdb {

/// Interned identifier for a (namespace URI, local name) pair.
using NameId = int32_t;
inline constexpr NameId kInvalidName = -1;

/// Interned namespace URIs and local names, separate from QName ids. Both
/// index one table of interned texts, so a namespace and a local name
/// spelled alike share an id; a name test only ever compares a namespace
/// id with a namespace id and a local id with a local id.
using NsId = int32_t;
using LocalId = int32_t;
/// The id of "" (no namespace); every pool interns it first.
inline constexpr NsId kNoNamespace = 0;
/// The wildcard part of a NameTest. Distinct from kInvalidName, so a failed
/// intern that slips through matches nothing instead of everything.
inline constexpr int32_t kAnyName = -2;

/// A QName id's two parts.
struct NameParts {
  NsId ns = kInvalidName;
  LocalId local = kInvalidName;
  bool operator==(const NameParts&) const = default;
};

/// A name test compiled against the pool: the namespace and the local part
/// are each an exact id or kAnyName. `*` is {kAnyName, kAnyName}, `p:*` is
/// {ns, kAnyName}, `*:l` is {kAnyName, l}. Matching is two integer compares.
struct NameTest {
  NsId ns = kAnyName;
  LocalId local = kAnyName;

  bool ns_any() const { return ns == kAnyName; }
  bool local_any() const { return local == kAnyName; }
  bool Matches(NameParts p) const {
    return (ns == kAnyName || ns == p.ns) &&
           (local == kAnyName || local == p.local);
  }
  bool operator==(const NameTest&) const = default;
};

/// Process-wide interning pool for namespace URIs, local names and QNames.
/// Documents, queries and index patterns all resolve names through the same
/// pool, so name equality is id equality and every name comparison in the
/// engine is an integer comparison: node tests and index patterns are
/// compiled to NameTests once, and a node's name is matched through
/// PartsOf, never through its strings.
///
/// Thread-safety: the text and QName tables are single-writer
/// StableVectors. Intern* are serialized by `mu_` (a reader lock covers the
/// lookup fast path, the writer lock the append). PartsOf, NamespaceOf,
/// LocalOf and the *Text accessors take no lock: an id is only ever handed
/// out after its entry was published by StableVector's release store, and
/// every reader that holds an id got it through some happens-before edge
/// from that Intern (the lookup map's lock, or the structure the id was
/// stored in).
///
/// Capacity: each table holds at most StableVector::max_size() (4M)
/// entries. Interning past that fails with kInvalidName, and the parsers
/// turn that into an error Status; ids already handed out stay valid.
class NamePool {
 public:
  /// Entries per table: the StableVector bound.
  static constexpr size_t kCapacity = StableVector<NameParts>::max_size();

  NamePool();
  NamePool(const NamePool&) = delete;
  NamePool& operator=(const NamePool&) = delete;

  /// The process-wide pool. Never destroyed (intentional leak, per the
  /// style guide's rule on static storage duration objects).
  static NamePool* Global() {
    static NamePool* const pool = new NamePool;
    return pool;
  }

  /// Interns a QName. The empty URI denotes "no namespace". Returns
  /// kInvalidName when a table is full; callers report FullError().
  NameId Intern(std::string_view ns_uri, std::string_view local)
      XQDB_EXCLUDES(mu_);
  /// Interns one part on its own, for compiling the exact parts of name
  /// tests (`p:*`, `*:l`, `p:l`). Always interned, never looked up: a
  /// cached plan must still match a name that a later INSERT introduces.
  Result<NsId> InternNamespace(std::string_view ns_uri) XQDB_EXCLUDES(mu_) {
    return InternPart(ns_uri);
  }
  Result<LocalId> InternLocal(std::string_view local) XQDB_EXCLUDES(mu_) {
    return InternPart(local);
  }

  /// Looks up a QName without interning; returns kInvalidName if absent.
  NameId Find(std::string_view ns_uri, std::string_view local) const
      XQDB_EXCLUDES(mu_);

  /// Lock-free. `id` must be a valid id of this pool.
  NameParts PartsOf(NameId id) const {
    return entries_[static_cast<size_t>(id)];
  }

  /// Lock-free. The views point into StableVector elements that are never
  /// erased, mutated or moved, so they stay valid for the pool's lifetime.
  std::string_view NamespaceOf(NameId id) const;
  std::string_view LocalOf(NameId id) const;
  std::string_view NamespaceText(NsId ns) const;
  std::string_view LocalText(LocalId local) const;

  /// "{uri}local" for diagnostics, or plain "local" when URI is empty.
  std::string ToString(NameId id) const;

  /// The ResourceExhausted status every interning site reports.
  static Status FullError();

  /// Number of interned QNames.
  size_t size() const { return entries_.size(); }

  /// Test hook: caps every table at `max_entries` (kCapacity by default)
  /// so exhaustion can be exercised without interning 4M names. 0 freezes
  /// the pool: known names still resolve, every new one fails.
  void SetCapacityForTesting(size_t max_entries) XQDB_EXCLUDES(mu_);

 private:
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using IdMap =
      std::unordered_map<std::string, int32_t, TextHash, std::equal_to<>>;

  Result<int32_t> InternPart(std::string_view text) XQDB_EXCLUDES(mu_);
  /// Id of `text`, appending it when new; kInvalidName when full.
  int32_t InternTextLocked(std::string_view text) XQDB_REQUIRES(mu_);

  mutable SharedMutex mu_{"xml.namepool", LockRank::kNamePool};
  StableVector<std::string> texts_;  // NsId / LocalId -> text
  StableVector<NameParts> entries_;  // NameId -> parts
  IdMap text_ids_ XQDB_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, NameId> lookup_
      XQDB_GUARDED_BY(mu_);  // key: (ns << 32) | local
  size_t capacity_ XQDB_GUARDED_BY(mu_) = kCapacity;
};

}  // namespace xqdb

#endif  // XQDB_XML_QNAME_H_
