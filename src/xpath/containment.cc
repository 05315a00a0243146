#include "xpath/containment.h"

#include <set>
#include <utility>
#include <vector>

#include "xpath/pattern_nfa.h"

namespace xqdb {

namespace {

/// An id no interned name ever gets: the "any other name" letter of the
/// abstract alphabet (distinct from kAnyName and kInvalidName too).
constexpr int32_t kFreshId = -3;

void CollectNames(const Pattern& p, std::set<NsId>* ns_set,
                  std::set<LocalId>* local_set) {
  for (const auto& alt : p.alternatives) {
    for (const NormStep& step : alt) {
      if (!step.test.name.ns_any()) ns_set->insert(step.test.name.ns);
      if (!step.test.name.local_any()) local_set->insert(step.test.name.local);
    }
  }
}

}  // namespace

Result<bool> PatternContains(const Pattern& index, const Pattern& query) {
  if (query.matches_document_node && !index.matches_document_node) {
    return false;
  }

  XQDB_ASSIGN_OR_RETURN(PatternNfa qn, PatternNfa::Compile(query));
  XQDB_ASSIGN_OR_RETURN(PatternNfa in, PatternNfa::Compile(index));

  // Abstract alphabet: every name id either pattern mentions, plus one
  // fresh id per part standing for every other name.
  std::set<NsId> ns_set{kFreshId};
  std::set<LocalId> local_set{kFreshId};
  CollectNames(index, &ns_set, &local_set);
  CollectNames(query, &ns_set, &local_set);

  std::vector<PathSymbol> alphabet;
  for (NsId ns : ns_set) {
    for (LocalId local : local_set) {
      alphabet.push_back({NodeRank::kElem, {ns, local}});
      alphabet.push_back({NodeRank::kAttr, {ns, local}});
    }
  }
  // PI targets are (no-namespace, local); text/comment are unnamed.
  for (LocalId local : local_set) {
    alphabet.push_back({NodeRank::kPi, {kNoNamespace, local}});
  }
  alphabet.push_back({NodeRank::kText, {}});
  alphabet.push_back({NodeRank::kComment, {}});

  // Product BFS: pairs (query state set, index state set). The query side
  // stays a nondeterministic *set* too: a word is accepted by the query iff
  // its reachable set hits an accept state, so tracking the set and testing
  // "query accepts here but index does not" is sound and avoids
  // per-state bookkeeping.
  //
  // A word w is a counterexample iff qset(w) contains an accept state and
  // iset(w) does not. Since both sets are functions of w, BFS over pairs.
  using PairKey = std::pair<uint64_t, uint64_t>;
  std::set<PairKey> visited;
  std::vector<PairKey> frontier;

  auto check = [&](uint64_t qset, uint64_t iset) {
    return qn.AnyAccept(qset) && !in.AnyAccept(iset);
  };

  PairKey start{qn.start_set(), in.start_set()};
  if (check(start.first, start.second)) return false;
  visited.insert(start);
  frontier.push_back(start);

  while (!frontier.empty()) {
    PairKey cur = frontier.back();
    frontier.pop_back();
    for (const PathSymbol& sym : alphabet) {
      uint64_t nq = qn.Advance(cur.first, sym);
      if (nq == 0) continue;  // Dead for the query: cannot extend to a match.
      uint64_t ni = in.Advance(cur.second, sym);
      if (check(nq, ni)) return false;
      PairKey next{nq, ni};
      if (visited.insert(next).second) frontier.push_back(next);
    }
  }
  return true;
}

}  // namespace xqdb
