#include "xpath/pattern_nfa.h"

#include <algorithm>

namespace xqdb {

Result<PatternNfa> PatternNfa::Compile(const Pattern& pattern) {
  PatternNfa nfa;
  nfa.matches_document_node_ = pattern.matches_document_node;
  size_t total_states = 0;
  for (const auto& alt : pattern.alternatives) {
    total_states += alt.size() + 1;
  }
  if (total_states > 64) {
    return Status::InvalidArgument(
        "index pattern too complex (needs more than 64 automaton states)");
  }
  for (const auto& alt : pattern.alternatives) {
    int base = static_cast<int>(nfa.states_.size());
    nfa.states_.resize(nfa.states_.size() + alt.size() + 1);
    nfa.start_set_ |= 1ull << base;
    for (size_t i = 0; i < alt.size(); ++i) {
      State& s = nfa.states_[static_cast<size_t>(base) + i];
      s.skip_loop = alt[i].skip;
      s.out.push_back(Transition{alt[i].test, base + static_cast<int>(i) + 1});
    }
    nfa.accept_set_ |= 1ull << (base + static_cast<int>(alt.size()));
  }
  if (pattern.alternatives.empty()) {
    // Degenerate pattern that can only match the document node.
    nfa.states_.resize(1);
    nfa.start_set_ = 1;
  }
  return nfa;
}

PatternNfa::StateSet PatternNfa::Advance(StateSet set,
                                         const PathSymbol& sym) const {
  StateSet out = 0;
  StateSet remaining = set;
  while (remaining != 0) {
    int s = __builtin_ctzll(remaining);
    remaining &= remaining - 1;
    const State& st = states_[static_cast<size_t>(s)];
    if (st.skip_loop && sym.rank == NodeRank::kElem) {
      out |= 1ull << s;
    }
    for (const Transition& tr : st.out) {
      if (tr.test.Matches(sym)) {
        out |= 1ull << tr.target;
      }
    }
  }
  return out;
}

void ForEachMatch(const PatternNfa& nfa, const Document& doc,
                  const std::function<void(NodeIdx)>& fn) {
  if (doc.root() == kNullNode) return;
  // Iterative pre-order scan over the node array driven by the pre/post
  // interval encoding: the array index is the pre rank, so "descend" is
  // ++idx, "the subtree is dead" is a constant-time cursor jump to
  // subtree_end, and no call stack grows with document depth (deep
  // documents — depth in the hundreds — overflowed the recursive walk's
  // frame budget long before its O(depth) cost mattered).
  struct Frame {
    NodeIdx end;                  // one past the owning subtree
    PatternNfa::StateSet states;  // active set for nodes inside it
  };
  std::vector<Frame> stack;
  const NodeIdx count = static_cast<NodeIdx>(doc.node_count());
  NodeIdx idx = doc.root();
  if (doc.node(idx).kind == NodeKind::kDocument) {
    if (nfa.matches_document_node()) fn(idx);
    stack.push_back(Frame{doc.subtree_end(idx), nfa.start_set()});
    ++idx;
  }
  while (idx < count) {
    while (!stack.empty() && stack.back().end <= idx) stack.pop_back();
    const PatternNfa::StateSet active =
        stack.empty() ? nfa.start_set() : stack.back().states;
    PatternNfa::StateSet here = nfa.Advance(active, SymbolOf(doc.node(idx)));
    if (here == 0) {
      idx = doc.subtree_end(idx);  // prune: skip the whole dead subtree
      continue;
    }
    if (nfa.AnyAccept(here)) fn(idx);
    const NodeIdx end = doc.subtree_end(idx);
    if (end > idx + 1) stack.push_back(Frame{end, here});
    ++idx;
  }
}

bool MatchesNode(const PatternNfa& nfa, const Document& doc, NodeIdx idx) {
  // Build the root-to-node symbol path, then run the automaton along it.
  std::vector<NodeIdx> path;
  for (NodeIdx cur = idx; cur != kNullNode; cur = doc.node(cur).parent) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  PatternNfa::StateSet set = nfa.start_set();
  for (NodeIdx step : path) {
    if (doc.node(step).kind == NodeKind::kDocument) {
      if (step == idx) return nfa.matches_document_node();
      continue;
    }
    set = nfa.Advance(set, SymbolOf(doc.node(step)));
    if (set == 0) return false;
  }
  return nfa.AnyAccept(set);
}

}  // namespace xqdb
