// Pins the pre/post interval encoding invariants that the structural-join
// evaluation (xquery/structural_join.cc) and the path summary
// (index/path_summary.cc) rely on:
//
//   1. The node-array index IS the pre rank: a depth-first walk over the
//      parent/child/sibling links visits nodes in exactly array order.
//   2. descendant <=> interval containment: IsDescendant's O(1) test
//      (anc.idx < d.idx < subtree_end(anc), attributes excluded) agrees
//      with the recursive parent-chain walk on every node pair.
//   3. Both hold for every document a table stores across an insert/delete
//      epoch — the builder maintains subtree_end incrementally (AppendNode
//      widens every ancestor's interval), it is never rebuilt.
//
// Runs under the `concurrency` ctest label: a settled (immutable) table's
// documents and path summary are probed from many threads at once, so the
// TSan matrix proves the structural read paths are data-race free.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "index/path_summary.h"
#include "xml/parser.h"
#include "xpath/pattern.h"
#include "xpath/pattern_nfa.h"

namespace xqdb {
namespace {

/// Ground truth for the descendant axis: walk the parent chain. Attributes
/// are not descendants (they are *in* the element's interval but the axis
/// excludes them).
bool IsDescendantByWalk(const Document& doc, NodeIdx anc, NodeIdx desc) {
  if (doc.node(desc).kind == NodeKind::kAttribute) return false;
  for (NodeIdx p = doc.node(desc).parent; p != kNullNode;
       p = doc.node(p).parent) {
    if (p == anc) return true;
  }
  return false;
}

/// Invariant 1: an explicit-stack DFS (attributes before children, both in
/// sibling order) must visit node indexes 0, 1, 2, ... in order.
void CheckPreOrderIsDocumentOrder(const Document& doc) {
  if (doc.root() == kNullNode) return;
  std::vector<NodeIdx> order;
  std::vector<NodeIdx> stack = {doc.root()};
  while (!stack.empty()) {
    NodeIdx i = stack.back();
    stack.pop_back();
    order.push_back(i);
    // Push attribute and child chains reversed so they pop in order.
    std::vector<NodeIdx> forward;
    for (NodeIdx a = doc.node(i).first_attr; a != kNullNode;
         a = doc.node(a).next_sibling) {
      forward.push_back(a);
    }
    for (NodeIdx c = doc.node(i).first_child; c != kNullNode;
         c = doc.node(c).next_sibling) {
      forward.push_back(c);
    }
    stack.insert(stack.end(), forward.rbegin(), forward.rend());
  }
  ASSERT_EQ(order.size(), doc.node_count());
  for (size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<NodeIdx>(k))
        << "DFS visit #" << k << " is not array slot " << k;
  }
}

/// Invariants 2 (+ interval well-formedness): every pair cross-checked.
void CheckIntervalsMatchWalk(const Document& doc) {
  const NodeIdx n = static_cast<NodeIdx>(doc.node_count());
  for (NodeIdx i = 0; i < n; ++i) {
    const Node& node = doc.node(i);
    ASSERT_GT(doc.subtree_end(i), i);
    ASSERT_LE(doc.subtree_end(i), n);
    if (node.parent != kNullNode) {
      // Nesting: a child's interval is inside its parent's.
      EXPECT_LE(doc.subtree_end(i), doc.subtree_end(node.parent));
    }
    for (NodeIdx j = 0; j < n; ++j) {
      NodeHandle a{&doc, i};
      NodeHandle d{&doc, j};
      EXPECT_EQ(IsDescendant(a, d), IsDescendantByWalk(doc, i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

std::unique_ptr<Document> MustParse(const std::string& xml) {
  auto doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

/// Deep chain: <d0><d1>...<d63/>...</d1></d0> — depth past any evaluator
/// recursion budget; the interval encoding is depth-independent.
std::string DeepChainXml(int depth) {
  std::string xml;
  for (int i = 0; i < depth; ++i) {
    xml += "<d" + std::to_string(i) + ">";
  }
  xml += "leaf";
  for (int i = depth - 1; i >= 0; --i) {
    xml += "</d" + std::to_string(i) + ">";
  }
  return xml;
}

std::string WideFanoutXml(int width) {
  std::string xml = "<wide>";
  for (int i = 0; i < width; ++i) {
    xml += "<item n=\"" + std::to_string(i) + "\"><v>" + std::to_string(i) +
           "</v></item>";
  }
  xml += "</wide>";
  return xml;
}

TEST(IntervalInvariantsTest, MixedContentDocument) {
  auto doc = MustParse(
      "<order id=\"7\"><!--note--><memo>rush <emph>very</emph> rush</memo>"
      "<?pi data?><lineitem quantity=\"2\" price=\"10.00\">"
      "<product id=\"p1\"><id>p1</id></product></lineitem></order>");
  CheckPreOrderIsDocumentOrder(*doc);
  CheckIntervalsMatchWalk(*doc);
}

TEST(IntervalInvariantsTest, DeepChain) {
  auto doc = MustParse(DeepChainXml(80));
  CheckPreOrderIsDocumentOrder(*doc);
  CheckIntervalsMatchWalk(*doc);
}

TEST(IntervalInvariantsTest, WideFanout) {
  auto doc = MustParse(WideFanoutXml(60));
  CheckPreOrderIsDocumentOrder(*doc);
  CheckIntervalsMatchWalk(*doc);
}

TEST(IntervalInvariantsTest, HoldForEveryStoredDocAcrossInsertsAndDeletes) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id INTEGER, doc XML)").ok());
  auto insert = [&](int id, const std::string& xml) {
    auto r = db.ExecuteSql("INSERT INTO t VALUES (" + std::to_string(id) +
                           ", '" + xml + "')");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };
  auto check_all = [&]() {
    auto table = db.catalog().GetTable("T");
    ASSERT_TRUE(table.ok());
    int col = table.value()->ColumnIndex("DOC");
    for (uint32_t r = 0; r < table.value()->row_count(); ++r) {
      if (table.value()->is_deleted(r)) continue;
      const Document* doc = table.value()->xml_document(r, col);
      ASSERT_NE(doc, nullptr);
      CheckPreOrderIsDocumentOrder(*doc);
      CheckIntervalsMatchWalk(*doc);
    }
  };

  insert(1, DeepChainXml(64));
  insert(2, WideFanoutXml(40));
  insert(3, "<a><b at=\"x\">t1<c/>t2</b><b><c><d/></c></b></a>");
  check_all();
  ASSERT_TRUE(db.ExecuteSql("DELETE FROM t WHERE id = 2").ok());
  insert(4, DeepChainXml(70));
  insert(5, "<a><b/><b><c at=\"y\"/></b></a>");
  ASSERT_TRUE(db.ExecuteSql("DELETE FROM t WHERE id = 1").ok());
  check_all();
}

PatternNfa MustCompile(const std::string& pattern) {
  auto parsed = ParsePattern(pattern);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto nfa = PatternNfa::Compile(*parsed);
  EXPECT_TRUE(nfa.ok()) << nfa.status().ToString();
  return std::move(nfa).value();
}

TEST(PathSummaryTest, MatchRowsTracksInsertsAndDeletes) {
  PathSummary s;
  auto d0 = MustParse("<a><b><c>x</c></b></a>");
  auto d1 = MustParse("<a><b>y</b></a>");
  auto d2 = MustParse("<a><z at=\"1\"><c/></z></a>");
  s.AddDocument(0, *d0);
  s.AddDocument(1, *d1);
  s.AddDocument(2, *d2);
  EXPECT_EQ(s.row_count(), 3u);

  PatternNfa a_c = MustCompile("//c");
  PathSummary::MatchStats stats;
  EXPECT_EQ(s.MatchRows(a_c, &stats), (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(s.AnyPathMatches(a_c, &stats));

  // Pruning: the automaton dies at /a/b for //z//c, cutting that branch
  // of the trie without visiting its children.
  stats = {};
  PatternNfa z_c = MustCompile("//z//c");
  EXPECT_EQ(s.MatchRows(z_c, &stats), (std::vector<uint32_t>{2}));
  EXPECT_GT(stats.pruned_paths, 0);

  // Removing the last occurrence of a path kills it; other rows with the
  // same path word keep matching.
  s.RemoveDocument(2, *d2);
  EXPECT_EQ(s.row_count(), 2u);
  EXPECT_EQ(s.MatchRows(a_c, &stats), (std::vector<uint32_t>{0}));
  EXPECT_FALSE(s.AnyPathMatches(z_c, &stats));
  s.RemoveDocument(0, *d0);
  EXPECT_FALSE(s.AnyPathMatches(a_c, &stats));

  // Re-adding resurrects the dead trie branch.
  s.AddDocument(5, *d2);
  EXPECT_EQ(s.MatchRows(a_c, &stats), (std::vector<uint32_t>{5}));
}

// The concurrency payoff: once a table settles, its documents and summary
// are immutable and must be safely readable from many threads (this is
// what lets parallel scans use structural joins). TSan enforces it.
TEST(StructuralConcurrencyTest, SettledDocumentsAndSummaryAreRaceFree) {
  Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id INTEGER, doc XML)").ok());
  for (int i = 0; i < 8; ++i) {
    std::string xml = i % 2 == 0 ? DeepChainXml(48 + i) : WideFanoutXml(24);
    ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", '" + xml + "')")
                    .ok());
  }
  auto table = db.catalog().GetTable("T");
  ASSERT_TRUE(table.ok());
  const int col = table.value()->ColumnIndex("DOC");
  const PathSummary* summary = table.value()->path_summary("DOC");
  ASSERT_NE(summary, nullptr);
  PatternNfa probe = MustCompile("//v");

  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int iter = 0; iter < 20; ++iter) {
        for (uint32_t r = 0; r < table.value()->row_count(); ++r) {
          const Document* doc = table.value()->xml_document(r, col);
          const NodeIdx n = static_cast<NodeIdx>(doc->node_count());
          long long descendants = 0;
          NodeHandle root{doc, doc->root()};
          for (NodeIdx j = 0; j < n; ++j) {
            if (IsDescendant(root, NodeHandle{doc, j})) ++descendants;
          }
          EXPECT_GT(descendants, 0);
        }
        PathSummary::MatchStats stats;
        EXPECT_EQ(summary->MatchRows(probe, &stats).size(), 4u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace xqdb
