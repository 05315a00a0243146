#include "index/path_summary.h"

#include <algorithm>
#include <bit>

#include "xml/qname.h"

namespace xqdb {

PathSummary::TrieNode* PathSummary::Child(TrieNode* parent,
                                          const PathSymbol& sym, bool create) {
  for (const auto& c : parent->children) {
    if (c->sym == sym) return c.get();
  }
  if (!create) return nullptr;
  auto node = std::make_unique<TrieNode>();
  node->sym = sym;
  parent->children.push_back(std::move(node));
  return parent->children.back().get();
}

void PathSummary::AddDocument(uint32_t row, const Document& doc) {
  WriterMutexLock lock(mu_);
  if (doc.root() == kNullNode) return;
  ++doc_rows_[row];
  // One pass over the node array: the array index is the pre rank, a frame
  // covers one subtree's interval, and the trie cursor mirrors the
  // document's path stack. O(nodes), no recursion, no rebuild.
  struct Frame {
    NodeIdx end;
    TrieNode* node;
  };
  std::vector<Frame> stack;
  const NodeIdx count = static_cast<NodeIdx>(doc.node_count());
  NodeIdx idx = doc.root();
  if (doc.node(idx).kind == NodeKind::kDocument) {
    stack.push_back(Frame{doc.subtree_end(idx), &root_});
    ++idx;
  }
  while (idx < count) {
    while (!stack.empty() && stack.back().end <= idx) stack.pop_back();
    TrieNode* parent = stack.empty() ? &root_ : stack.back().node;
    TrieNode* node = Child(parent, SymbolOf(doc.node(idx)), /*create=*/true);
    if (node->rows.empty()) ++path_count_;
    ++node->rows[row];
    const NodeIdx end = doc.subtree_end(idx);
    if (end > idx + 1) stack.push_back(Frame{end, node});
    ++idx;
  }
}

void PathSummary::RemoveDocument(uint32_t row, const Document& doc) {
  WriterMutexLock lock(mu_);
  if (doc.root() == kNullNode) return;
  auto docs = doc_rows_.find(row);
  if (docs != doc_rows_.end() && --docs->second == 0) doc_rows_.erase(docs);
  struct Frame {
    NodeIdx end;
    TrieNode* node;
  };
  std::vector<Frame> stack;
  const NodeIdx count = static_cast<NodeIdx>(doc.node_count());
  NodeIdx idx = doc.root();
  if (doc.node(idx).kind == NodeKind::kDocument) {
    stack.push_back(Frame{doc.subtree_end(idx), &root_});
    ++idx;
  }
  while (idx < count) {
    while (!stack.empty() && stack.back().end <= idx) stack.pop_back();
    TrieNode* parent = stack.empty() ? &root_ : stack.back().node;
    TrieNode* node = Child(parent, SymbolOf(doc.node(idx)), /*create=*/false);
    if (node == nullptr) {
      // Unknown path: the caller is removing a document that was never
      // added. Skip the subtree rather than corrupting counts.
      idx = doc.subtree_end(idx);
      continue;
    }
    auto it = node->rows.find(row);
    if (it != node->rows.end() && --it->second == 0) {
      node->rows.erase(it);
      if (node->rows.empty()) --path_count_;
    }
    const NodeIdx end = doc.subtree_end(idx);
    if (end > idx + 1) stack.push_back(Frame{end, node});
    ++idx;
  }
}

template <typename Visit>
void PathSummary::ForEachAccepted(const PatternNfa& nfa, MatchStats* stats,
                                  const Visit& visit) const {
  // Iterative product traversal of (trie, automaton). The trie is as deep
  // as the deepest stored document, so an explicit stack is mandatory for
  // the same reason the Pattern-NFA document scan uses one.
  struct Frame {
    const TrieNode* node;
    size_t next_child;
    PatternNfa::StateSet states;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{&root_, 0, nfa.start_set()});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_child >= f.node->children.size()) {
      stack.pop_back();
      continue;
    }
    const TrieNode* child = f.node->children[f.next_child++].get();
    if (child->rows.empty()) continue;  // dead path (all docs removed)
    PatternNfa::StateSet next = nfa.Advance(f.states, child->sym);
    if (next == 0) {
      if (stats != nullptr) ++stats->pruned_paths;
      continue;
    }
    if (nfa.AnyAccept(next) && !visit(*child)) return;
    stack.push_back(Frame{child, 0, next});
  }
}

std::vector<uint32_t> PathSummary::MatchRows(const PatternNfa& nfa,
                                             MatchStats* stats) const {
  ReaderMutexLock lock(mu_);
  std::vector<uint32_t> rows;
  if (doc_rows_.empty()) return rows;
  if (nfa.matches_document_node()) {
    for (const auto& [row, n] : doc_rows_) rows.push_back(row);
    return rows;
  }
  // Accepted trie nodes overlap in rows (a row holds many matching paths),
  // so union them in a bitmap over row ids, then read it out ascending.
  std::vector<uint64_t> bits(doc_rows_.rbegin()->first / 64 + 1);
  ForEachAccepted(nfa, stats, [&](const TrieNode& node) {
    for (const auto& [row, n] : node.rows) {
      if (row / 64 >= bits.size()) bits.resize(row / 64 + 1);
      bits[row / 64] |= uint64_t{1} << (row % 64);
    }
    return true;
  });
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      rows.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
  return rows;
}

bool PathSummary::AnyPathMatches(const PatternNfa& nfa,
                                 MatchStats* stats) const {
  ReaderMutexLock lock(mu_);
  if (nfa.matches_document_node() && !doc_rows_.empty()) return true;
  bool any = false;
  ForEachAccepted(nfa, stats, [&](const TrieNode&) {
    any = true;
    return false;
  });
  return any;
}

namespace {

/// Banded Levenshtein distance with an early-out cap: returns cap + 1 as
/// soon as the distance provably exceeds `cap`.
size_t EditDistance(const std::string& a, const std::string& b, size_t cap) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t big = cap + 1;
  if (n > m + cap || m > n + cap) return big;
  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t prev = row[0];
    row[0] = i;
    size_t best = row[0];
    for (size_t j = 1; j <= m; ++j) {
      size_t cur = row[j];
      size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, prev + cost});
      prev = cur;
      best = std::min(best, row[j]);
    }
    if (best > cap) return big;
  }
  return row[m] > cap ? big : row[m];
}

std::string RenderTrieSymbol(const PathSymbol& sym) {
  std::string local;
  if (sym.rank != NodeRank::kText && sym.rank != NodeRank::kComment) {
    local = NamePool::Global()->LocalText(sym.name.local);
  }
  switch (sym.rank) {
    case NodeRank::kElem:
      return "/" + local;
    case NodeRank::kAttr:
      return "/@" + local;
    case NodeRank::kText:
      return "/text()";
    case NodeRank::kComment:
      return "/comment()";
    case NodeRank::kPi:
      return "/processing-instruction(" + local + ")";
  }
  return "/" + local;
}

}  // namespace

std::string PathSummary::NearestLivePath(const std::string& target,
                                         size_t max_paths) const {
  ReaderMutexLock lock(mu_);
  const size_t cap = std::max<size_t>(2, target.size() / 2);
  struct Frame {
    const TrieNode* node;
    size_t next_child;
    std::string path;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{&root_, 0, ""});
  std::string best;
  size_t best_dist = cap + 1;
  size_t seen = 0;
  while (!stack.empty() && seen < max_paths) {
    Frame& f = stack.back();
    if (f.next_child >= f.node->children.size()) {
      stack.pop_back();
      continue;
    }
    const TrieNode* child = f.node->children[f.next_child++].get();
    if (child->rows.empty()) continue;  // dead path
    std::string path = f.path + RenderTrieSymbol(child->sym);
    ++seen;
    size_t d = EditDistance(path, target, best_dist - 1);
    if (d < best_dist) {
      best_dist = d;
      best = path;
    }
    stack.push_back(Frame{child, 0, std::move(path)});
  }
  return best_dist <= cap ? best : std::string();
}

size_t PathSummary::path_count() const {
  ReaderMutexLock lock(mu_);
  return path_count_;
}

size_t PathSummary::row_count() const {
  ReaderMutexLock lock(mu_);
  return doc_rows_.size();
}

}  // namespace xqdb
