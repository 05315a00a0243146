#ifndef XQDB_INDEX_PATH_SUMMARY_H_
#define XQDB_INDEX_PATH_SUMMARY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "xml/document.h"
#include "xpath/pattern.h"
#include "xpath/pattern_nfa.h"

namespace xqdb {

/// A strong DataGuide over one XML column: the trie of every distinct
/// root-to-node path word occurring in the stored documents, with a
/// row -> occurrence count at every trie node. Because the collection's
/// path set is usually tiny compared to the collection itself (DataGuides
/// collapse repetition), the summary answers two questions without
/// touching a single document:
///
///   1. Which rows contain a node matching pattern P?  (MatchRows —
///      the access path of every structural predicate, docs_scanned = 0)
///   2. Does any stored path match P at all?  (AnyPathMatches — the
///      emptiness witness behind static folds)
///
/// Both are one walk of the trie in product with P's automaton.
///
/// Maintained incrementally: AddDocument / RemoveDocument walk the
/// document's pre/post interval encoding once (no recursion, no rebuild),
/// so the summary stays transactionally consistent with DML the same way
/// the XML value indexes do. Answers from the summary are therefore always
/// current — consulting it at execution time is plan-cache safe.
///
/// Thread safety: internally locked (reader/writer), like XmlIndex —
/// AddDocument/RemoveDocument are writers, the match queries readers. The
/// direct SharedMutex member makes the class non-movable; Table stores
/// summaries in a deque and constructs them in place.
class PathSummary {
 public:
  PathSummary() = default;
  PathSummary(PathSummary&&) = delete;
  PathSummary& operator=(PathSummary&&) = delete;
  PathSummary(const PathSummary&) = delete;
  PathSummary& operator=(const PathSummary&) = delete;

  /// Records every root-to-node path of `doc` under row id `row`.
  void AddDocument(uint32_t row, const Document& doc);

  /// Reverses AddDocument for the same (row, doc) pair. Paths whose last
  /// occurrence disappears stay as dead trie nodes but stop matching.
  void RemoveDocument(uint32_t row, const Document& doc);

  struct MatchStats {
    /// Trie branches cut because the automaton had no surviving state —
    /// whole families of stored paths dismissed without per-document work.
    long long pruned_paths = 0;
  };

  /// Rows whose document contains at least one node matching `nfa`,
  /// deduplicated, ascending. Never touches a document.
  std::vector<uint32_t> MatchRows(const PatternNfa& nfa,
                                  MatchStats* stats) const;

  /// True when at least one live stored path matches `nfa`.
  bool AnyPathMatches(const PatternNfa& nfa, MatchStats* stats) const;

  /// Best-effort "did you mean" for a path the summary proved dead: walks
  /// up to `max_paths` live paths, renders each the way diagnostics spell
  /// paths ("/a/b/@c"), and returns the one closest in edit distance to
  /// `target` — or "" when nothing is plausibly close (distance above
  /// max(2, |target|/2)) or the summary is empty.
  std::string NearestLivePath(const std::string& target,
                              size_t max_paths = 512) const;

  /// Live distinct paths (trie nodes with at least one occurrence).
  /// Bodies in path_summary.cc (XQI003: headers never acquire locks).
  size_t path_count() const;

  /// Rows with at least one stored document.
  size_t row_count() const;

 private:
  struct TrieNode {
    /// Trie key: rank plus the name's interned parts (which identify its
    /// NameId one to one), so lookups and NFA steps compare integers.
    PathSymbol sym;
    /// row id -> number of nodes in that row's document with exactly this
    /// path word. Empty = dead path (and, since a parent element node is
    /// itself an occurrence of the prefix path, a dead node's whole
    /// subtree is dead too).
    std::map<uint32_t, uint32_t> rows;
    std::vector<std::unique_ptr<TrieNode>> children;
  };

  /// Finds (optionally creates) the child of `parent` for one path symbol.
  TrieNode* Child(TrieNode* parent, const PathSymbol& sym, bool create);

  /// The product walk of the trie with `nfa`: calls `visit` on each live
  /// trie node whose path `nfa` accepts, cutting the branches where the
  /// automaton dies, and stops early when `visit` returns false. The
  /// document node itself is the caller's case. Caller holds mu_.
  template <typename Visit>
  void ForEachAccepted(const PatternNfa& nfa, MatchStats* stats,
                       const Visit& visit) const;

  // Guards everything below (by convention — the trie is walked through
  // raw TrieNode pointers the annotation pass cannot attribute to mu_).
  mutable SharedMutex mu_{"index.path_summary", LockRank::kPathSummary};
  TrieNode root_;  // the document node; its own rows map stays empty
  std::map<uint32_t, uint32_t> doc_rows_;  // row -> stored document count
  size_t path_count_ = 0;
};

}  // namespace xqdb

#endif  // XQDB_INDEX_PATH_SUMMARY_H_
