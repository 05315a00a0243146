#ifndef XQDB_XPATH_PATTERN_NFA_H_
#define XQDB_XPATH_PATTERN_NFA_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "xml/document.h"
#include "xpath/pattern.h"

namespace xqdb {

/// A compiled pattern: a nondeterministic word automaton over path-word
/// symbols (rank, namespace id, local-name id). State sets are uint64 bitmasks, so a
/// compiled pattern is limited to 64 states — far beyond any realistic index
/// pattern (Compile returns an error otherwise).
///
/// Used in two places:
///  1. Index maintenance: stream a document's structure through the
///     automaton to find all matching nodes (ForEachMatch).
///  2. Containment (containment.h): language inclusion between a query path
///     and an index pattern — the structural half of index eligibility.
class PatternNfa {
 public:
  static Result<PatternNfa> Compile(const Pattern& pattern);

  using StateSet = uint64_t;

  StateSet start_set() const { return start_set_; }
  bool matches_document_node() const { return matches_document_node_; }

  /// Consumes one path symbol from every state in `set`: integer
  /// compares only.
  StateSet Advance(StateSet set, const PathSymbol& sym) const;

  bool AnyAccept(StateSet set) const { return (set & accept_set_) != 0; }

  int num_states() const { return static_cast<int>(states_.size()); }

  /// All (state, test, target) transitions and per-state element self-loops;
  /// exposed for the containment product construction.
  struct Transition {
    StepTest test;
    int target;
  };
  const std::vector<Transition>& transitions_from(int state) const {
    return states_[static_cast<size_t>(state)].out;
  }
  bool has_skip_loop(int state) const {
    return states_[static_cast<size_t>(state)].skip_loop;
  }

 private:
  struct State {
    bool skip_loop = false;  // self-loop consuming any element symbol
    std::vector<Transition> out;
  };

  std::vector<State> states_;
  StateSet start_set_ = 0;
  StateSet accept_set_ = 0;
  bool matches_document_node_ = false;
};

/// Invokes `fn` for every node of `doc` the pattern matches, in document
/// order. The traversal prunes subtrees whose state set becomes empty, so
/// matching is O(nodes x active states).
void ForEachMatch(const PatternNfa& nfa, const Document& doc,
                  const std::function<void(NodeIdx)>& fn);

/// Convenience: does the pattern match this specific node (identified by its
/// root-to-node path)?
bool MatchesNode(const PatternNfa& nfa, const Document& doc, NodeIdx idx);

}  // namespace xqdb

#endif  // XQDB_XPATH_PATTERN_NFA_H_
