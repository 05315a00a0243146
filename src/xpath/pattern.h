#ifndef XQDB_XPATH_PATTERN_H_
#define XQDB_XPATH_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "xml/document.h"
#include "xml/qname.h"

namespace xqdb {

/// Node-kind ranks used to classify one step of a root-to-node path. A
/// node's *path word* is the sequence of (rank, name) symbols on the path
/// from the document root to the node; all non-final symbols are kElem
/// (only elements have children). Attributes get their own rank, which is
/// how "//node() never reaches attributes" (paper §3.9 / Tip 12) falls out
/// of the model instead of being a special case.
enum class NodeRank : uint8_t {
  kElem = 0,
  kAttr = 1,
  kText = 2,
  kComment = 3,
  kPi = 4,
};
inline constexpr int kNumRanks = 5;

inline constexpr uint8_t RankBit(NodeRank r) {
  return static_cast<uint8_t>(1u << static_cast<uint8_t>(r));
}

/// One path-word symbol: a rank plus the interned parts of the node's name
/// (unused for text and comment symbols, which have no name).
struct PathSymbol {
  NodeRank rank = NodeRank::kElem;
  NameParts name;
  bool operator==(const PathSymbol&) const = default;
};

/// The path-word symbol of a non-document node: integers only, no lock.
/// The one node-to-symbol mapping shared by the NFA walks, the path
/// summary and the evaluator's name tests.
inline PathSymbol SymbolOf(const Node& n) {
  switch (n.kind) {
    case NodeKind::kElement:
      return {NodeRank::kElem, NamePool::Global()->PartsOf(n.name)};
    case NodeKind::kAttribute:
      return {NodeRank::kAttr, NamePool::Global()->PartsOf(n.name)};
    case NodeKind::kText:
      return {NodeRank::kText, {}};
    case NodeKind::kComment:
      return {NodeRank::kComment, {}};
    case NodeKind::kProcessingInstruction:
      return {NodeRank::kPi, NamePool::Global()->PartsOf(n.name)};
    case NodeKind::kDocument:
      break;
  }
  return {};
}

/// A predicate on one path-word symbol: a set of admissible ranks plus a
/// compiled name test. The name test applies to kElem / kAttr / kPi
/// symbols; text and comment symbols have no name.
struct StepTest {
  uint8_t rank_mask = 0;
  NameTest name;

  bool Matches(const PathSymbol& sym) const {
    if ((rank_mask & RankBit(sym.rank)) == 0) return false;
    if (sym.rank == NodeRank::kText || sym.rank == NodeRank::kComment) {
      return true;
    }
    return name.Matches(sym.name);
  }

  bool IsEmpty() const { return rank_mask == 0; }
  bool operator==(const StepTest&) const = default;
};

/// Intersection of two symbol predicates (empty rank_mask = matches
/// nothing). Used to fold self-axis steps into their predecessor.
StepTest IntersectTests(const StepTest& a, const StepTest& b);

/// One normalized linear step: optionally skip zero or more element symbols
/// (descendant-style), then consume exactly one symbol matching `test`.
struct NormStep {
  bool skip = false;
  StepTest test;
};

/// A parsed, normalized XML index pattern (paper §2.1 DDL grammar):
///
///   pattern  ::= namespace-decls? (( / | // ) axis? (name-test|kind-test))+
///   axis     ::= @ | child:: | attribute:: | self:: | descendant:: |
///                descendant-or-self::
///   name-test::= qname | * | ncname:* | *:ncname
///   kind-test::= node() | text() | comment() |
///                processing-instruction(ncname?)
///
/// Self and descendant-or-self axes are normalized away, which can produce a
/// small set of alternative linear step sequences; a pattern matches a node
/// iff any alternative matches its path word. `matches_document_node` covers
/// the degenerate self-axis-at-root case.
struct Pattern {
  std::vector<std::vector<NormStep>> alternatives;
  bool matches_document_node = false;
  std::string source_text;  // Original pattern, for EXPLAIN output.
};

/// Parses an index pattern. Namespace prefixes are resolved against the
/// pattern's own `declare namespace` / `declare default element namespace`
/// prolog; default element namespaces do NOT apply to attribute steps
/// (paper §3.7, li_price_ns example). Predicates are rejected (the paper's
/// grammar forbids them in index patterns). Every name test is compiled to
/// NamePool ids by interning, so the pattern also matches names that are
/// first stored after it was parsed.
Result<Pattern> ParsePattern(std::string_view text);

/// Builds a Pattern programmatically from normalized steps (used by the
/// eligibility analyzer to convert query paths into the same algebra).
Pattern MakePattern(std::vector<std::vector<NormStep>> alternatives);

/// Helpers for constructing step tests.
StepTest ElementTest(NameTest name);
StepTest AttributeTest(NameTest name);
StepTest KindTextTest();
StepTest KindCommentTest();
/// processing-instruction(target); kAnyName = any target.
StepTest KindPiTest(LocalId target);
/// child::node(): elements, text, comments and PIs — but never attributes.
StepTest ChildNodeTest();
/// attribute::node() / @*: any attribute.
StepTest AnyAttributeTest();

/// Human-readable dump for diagnostics/tests.
std::string PatternToString(const Pattern& p);

}  // namespace xqdb

#endif  // XQDB_XPATH_PATTERN_H_
