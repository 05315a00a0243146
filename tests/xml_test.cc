#include <gtest/gtest.h>

#include "xml/document.h"
#include "xml/parser.h"
#include "xml/qname.h"
#include "xml/serializer.h"
#include "workload/generator.h"

namespace xqdb {
namespace {

NodeHandle Root(const Document& doc) { return NodeHandle{&doc, doc.root()}; }

NodeHandle FirstElementChild(const NodeHandle& h) {
  for (NodeIdx c = h.node().first_child; c != kNullNode;
       c = h.doc->node(c).next_sibling) {
    if (h.doc->node(c).kind == NodeKind::kElement) return NodeHandle{h.doc, c};
  }
  return NodeHandle{};
}

TEST(QNameTest, InterningIsStable) {
  NamePool* pool = NamePool::Global();
  NameId a = pool->Intern("", "order");
  NameId b = pool->Intern("", "order");
  NameId c = pool->Intern("urn:x", "order");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool->LocalOf(c), "order");
  EXPECT_EQ(pool->NamespaceOf(c), "urn:x");
}

TEST(QNameTest, FindDoesNotIntern) {
  NamePool* pool = NamePool::Global();
  EXPECT_EQ(pool->Find("urn:never-interned-ns", "zzz"), kInvalidName);
}

TEST(QNameTest, PartsAreIntegerIdsSharedAcrossQNames) {
  NamePool* pool = NamePool::Global();
  NameId plain = pool->Intern("", "parts_item");
  NameId qualified = pool->Intern("urn:parts", "parts_item");
  NameId sibling = pool->Intern("urn:parts", "parts_other");
  // One local-name id for both namespaces, one namespace id for both
  // locals: what `*:l` and `p:*` tests compare against.
  EXPECT_EQ(pool->PartsOf(plain).local, pool->PartsOf(qualified).local);
  EXPECT_EQ(pool->PartsOf(qualified).ns, pool->PartsOf(sibling).ns);
  EXPECT_EQ(pool->PartsOf(plain).ns, kNoNamespace);
  EXPECT_EQ(pool->LocalText(pool->PartsOf(qualified).local), "parts_item");
  EXPECT_EQ(pool->NamespaceText(pool->PartsOf(sibling).ns), "urn:parts");
  // Interning a part on its own yields the same id a QName uses.
  EXPECT_EQ(pool->InternLocal("parts_other").value(),
            pool->PartsOf(sibling).local);
  EXPECT_EQ(pool->InternNamespace("urn:parts").value(),
            pool->PartsOf(sibling).ns);
  NameTest any_local{pool->PartsOf(qualified).ns, kAnyName};
  EXPECT_TRUE(any_local.Matches(pool->PartsOf(qualified)));
  EXPECT_TRUE(any_local.Matches(pool->PartsOf(sibling)));
  EXPECT_FALSE(any_local.Matches(pool->PartsOf(plain)));
}

TEST(QNameTest, FullPoolFailsVisiblyAndKeepsKnownIds) {
  NamePool pool;  // private pool: the global one stays untouched
  pool.SetCapacityForTesting(5);  // "", a, b, urn:c, c fill the text table
  NameId a = pool.Intern("", "a");
  NameId b = pool.Intern("", "b");
  NameId c = pool.Intern("urn:c", "c");
  ASSERT_NE(a, kInvalidName);
  ASSERT_NE(b, kInvalidName);
  ASSERT_NE(c, kInvalidName);
  // A new text no longer fits: it fails instead of handing out an id for
  // an unconstructed slot.
  EXPECT_EQ(pool.Intern("", "d"), kInvalidName);
  auto local = pool.InternLocal("never_fits");
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(local.status().code(), StatusCode::kResourceExhausted);
  // New pairs of known texts fill the QName table up to the same cap.
  EXPECT_NE(pool.Intern("urn:c", "a"), kInvalidName);
  EXPECT_NE(pool.Intern("urn:c", "b"), kInvalidName);
  EXPECT_EQ(pool.Intern("", "c"), kInvalidName);
  EXPECT_EQ(pool.size(), 5u);
  // Known names keep their ids and round-trip.
  EXPECT_EQ(pool.Intern("", "b"), b);
  EXPECT_EQ(pool.LocalOf(c), "c");
  EXPECT_EQ(pool.NamespaceOf(c), "urn:c");
  EXPECT_EQ(pool.InternLocal("a").value(), pool.PartsOf(a).local);
}

/// Freezes the process-wide pool for one test: every new name fails the
/// way the 4M-th would, without interning 4M names.
class FrozenNamePool {
 public:
  FrozenNamePool() { NamePool::Global()->SetCapacityForTesting(0); }
  ~FrozenNamePool() {
    NamePool::Global()->SetCapacityForTesting(NamePool::kCapacity);
  }
  FrozenNamePool(const FrozenNamePool&) = delete;
  FrozenNamePool& operator=(const FrozenNamePool&) = delete;
};

TEST(XmlParserTest, FullNamePoolIsAnErrorNotABadId) {
  ASSERT_TRUE(ParseXml("<order><custid>1</custid></order>").ok());
  FrozenNamePool frozen;
  auto fresh = ParseXml("<order><never_interned_full_pool/></order>");
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(fresh.status().code(), StatusCode::kResourceExhausted)
      << fresh.status().ToString();
  auto fresh_pi = ParseXml("<order><?never_interned_pi_target x?></order>");
  ASSERT_FALSE(fresh_pi.ok());
  EXPECT_EQ(fresh_pi.status().code(), StatusCode::kResourceExhausted);
  // Documents over known names still parse.
  EXPECT_TRUE(ParseXml("<order><custid>2</custid></order>").ok());
}

TEST(XmlParserTest, SimpleDocument) {
  auto doc = ParseXml("<order><custid>17</custid></order>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Document& d = **doc;
  EXPECT_EQ(d.node(d.root()).kind, NodeKind::kDocument);
  NodeHandle order = FirstElementChild(Root(d));
  ASSERT_TRUE(order.valid());
  EXPECT_EQ(NamePool::Global()->LocalOf(order.name()), "order");
  EXPECT_EQ(d.StringValue(order.idx), "17");
}

TEST(XmlParserTest, AttributesAndSelfClosing) {
  auto doc = ParseXml("<lineitem price=\"99.50\" quantity=\"2\"/>");
  ASSERT_TRUE(doc.ok());
  NodeHandle li = FirstElementChild(Root(**doc));
  int attrs = 0;
  for (NodeIdx a = li.node().first_attr; a != kNullNode;
       a = li.doc->node(a).next_sibling) {
    ++attrs;
    EXPECT_EQ(li.doc->node(a).kind, NodeKind::kAttribute);
  }
  EXPECT_EQ(attrs, 2);
}

TEST(XmlParserTest, BoundaryWhitespaceStrippedByDefault) {
  auto doc = ParseXml("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  NodeHandle a = FirstElementChild(Root(**doc));
  // Only the <b> element child remains.
  int children = 0;
  for (NodeIdx c = a.node().first_child; c != kNullNode;
       c = a.doc->node(c).next_sibling) {
    ++children;
    EXPECT_EQ(a.doc->node(c).kind, NodeKind::kElement);
  }
  EXPECT_EQ(children, 1);
}

TEST(XmlParserTest, MixedContentTextPreserved) {
  auto doc = ParseXml("<p>hello <b>world</b>!</p>");
  ASSERT_TRUE(doc.ok());
  NodeHandle p = FirstElementChild(Root(**doc));
  EXPECT_EQ(p.doc->StringValue(p.idx), "hello world!");
}

TEST(XmlParserTest, EntityReferences) {
  auto doc = ParseXml("<a attr=\"&lt;&amp;&gt;\">x &amp; y &#65;</a>");
  ASSERT_TRUE(doc.ok());
  NodeHandle a = FirstElementChild(Root(**doc));
  EXPECT_EQ(a.doc->StringValue(a.idx), "x & y A");
  NodeIdx attr = a.node().first_attr;
  ASSERT_NE(attr, kNullNode);
  EXPECT_EQ(a.doc->node(attr).content, "<&>");
}

TEST(XmlParserTest, NumericCharRefsValidatedAgainstCharProduction) {
  // XML 1.0 Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
  // [#x10000-#x10FFFF]. Everything else — surrogates, #xFFFE, code points
  // past U+10FFFF (including strtol-overflowing digit strings), control
  // characters, empty or malformed digit runs — is a well-formedness error.
  EXPECT_TRUE(ParseXml("<a>&#x9;&#xA;&#xD;&#x20;</a>").ok());
  EXPECT_TRUE(ParseXml("<a>&#xD7FF;&#xE000;&#xFFFD;</a>").ok());
  EXPECT_TRUE(ParseXml("<a>&#x10FFFF;</a>").ok());
  EXPECT_FALSE(ParseXml("<a>&#xD800;</a>").ok());  // surrogate block lo
  EXPECT_FALSE(ParseXml("<a>&#xDFFF;</a>").ok());  // surrogate block hi
  EXPECT_FALSE(ParseXml("<a>&#xFFFE;</a>").ok());
  EXPECT_FALSE(ParseXml("<a>&#xFFFF;</a>").ok());
  EXPECT_FALSE(ParseXml("<a>&#x110000;</a>").ok());
  EXPECT_FALSE(ParseXml("<a>&#xFFFFFFFFFF;</a>").ok());  // > LONG_MAX digits
  EXPECT_FALSE(ParseXml("<a>&#0;</a>").ok());
  EXPECT_FALSE(ParseXml("<a>&#8;</a>").ok());   // backspace
  EXPECT_FALSE(ParseXml("<a>&#x;</a>").ok());   // no digits
  EXPECT_FALSE(ParseXml("<a>&#;</a>").ok());
  EXPECT_FALSE(ParseXml("<a>&#x1G;</a>").ok());  // junk after digits
  EXPECT_FALSE(ParseXml("<a>&#-65;</a>").ok());  // strtol would take a sign
  EXPECT_FALSE(ParseXml("<a>&# 65;</a>").ok());
}

TEST(XmlParserTest, SupplementaryPlaneCharRefEncodesAsFourUtf8Bytes) {
  auto doc = ParseXml("<a>&#x10000;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  NodeHandle a = FirstElementChild(Root(**doc));
  EXPECT_EQ(a.doc->StringValue(a.idx), "\xF0\x90\x80\x80");
}

TEST(XmlParserTest, CdataKept) {
  auto doc = ParseXml("<a><![CDATA[1 < 2 & 3]]></a>");
  ASSERT_TRUE(doc.ok());
  NodeHandle a = FirstElementChild(Root(**doc));
  EXPECT_EQ(a.doc->StringValue(a.idx), "1 < 2 & 3");
}

TEST(XmlParserTest, CommentsAndPis) {
  auto doc = ParseXml("<a><!-- note --><?target data?></a>");
  ASSERT_TRUE(doc.ok());
  NodeHandle a = FirstElementChild(Root(**doc));
  std::vector<NodeKind> kinds;
  for (NodeIdx c = a.node().first_child; c != kNullNode;
       c = a.doc->node(c).next_sibling) {
    kinds.push_back(a.doc->node(c).kind);
  }
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], NodeKind::kComment);
  EXPECT_EQ(kinds[1], NodeKind::kProcessingInstruction);
}

TEST(XmlParserTest, Namespaces) {
  auto doc = ParseXml(
      "<order xmlns=\"urn:o\" xmlns:c=\"urn:c\">"
      "<c:nation code=\"1\"/><custid/></order>");
  ASSERT_TRUE(doc.ok());
  NodeHandle order = FirstElementChild(Root(**doc));
  NamePool* pool = NamePool::Global();
  EXPECT_EQ(pool->NamespaceOf(order.name()), "urn:o");
  NodeHandle nation = FirstElementChild(order);
  EXPECT_EQ(pool->NamespaceOf(nation.name()), "urn:c");
  // Default namespaces do not apply to attributes.
  NodeIdx code = nation.node().first_attr;
  ASSERT_NE(code, kNullNode);
  EXPECT_EQ(pool->NamespaceOf(nation.doc->node(code).name), "");
}

TEST(XmlParserTest, NamespaceScopingRestores) {
  auto doc = ParseXml(
      "<a><b xmlns=\"urn:inner\"><c/></b><d/></a>");
  ASSERT_TRUE(doc.ok());
  NamePool* pool = NamePool::Global();
  NodeHandle a = FirstElementChild(Root(**doc));
  NodeHandle b = FirstElementChild(a);
  EXPECT_EQ(pool->NamespaceOf(b.name()), "urn:inner");
  NodeHandle c = FirstElementChild(b);
  EXPECT_EQ(pool->NamespaceOf(c.name()), "urn:inner");
  // d is outside the scope of the inner default namespace.
  NodeIdx d = b.node().next_sibling;
  ASSERT_NE(d, kNullNode);
  EXPECT_EQ(pool->NamespaceOf(a.doc->node(d).name), "");
}

TEST(XmlParserTest, UndeclaredPrefixFails) {
  EXPECT_FALSE(ParseXml("<x:a/>").ok());
}

TEST(XmlParserTest, MismatchedTagsFail) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());  // two roots
}

TEST(XmlParserTest, DuplicateAttributeFails) {
  EXPECT_FALSE(ParseXml("<a x=\"1\" x=\"2\"/>").ok());
}

TEST(XmlDocumentTest, NodeIdentityAndDocOrder) {
  auto d1 = ParseXml("<a><b/><c/></a>");
  auto d2 = ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(d1.ok() && d2.ok());
  NodeHandle a1 = FirstElementChild(Root(**d1));
  NodeHandle a2 = FirstElementChild(Root(**d2));
  EXPECT_FALSE(a1 == a2);  // Same shape, distinct identity.
  NodeHandle b1 = FirstElementChild(a1);
  EXPECT_TRUE(DocOrderLess(a1, b1));
  EXPECT_FALSE(DocOrderLess(b1, a1));
}

TEST(XmlDocumentTest, ParentNavigation) {
  auto doc = ParseXml("<a><b attr=\"v\"/></a>");
  ASSERT_TRUE(doc.ok());
  NodeHandle a = FirstElementChild(Root(**doc));
  NodeHandle b = FirstElementChild(a);
  NodeHandle attr{b.doc, b.node().first_attr};
  EXPECT_TRUE(ParentOf(attr) == b);
  EXPECT_TRUE(ParentOf(b) == a);
  EXPECT_EQ(ParentOf(Root(**doc)).valid(), false);
}

TEST(XmlSerializerTest, RoundTripBasics) {
  const char* xml = "<order><lineitem price=\"99.50\">x</lineitem></order>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  std::string out = SerializeXml(Root(**doc));
  EXPECT_EQ(out, xml);
}

TEST(XmlSerializerTest, EscapesSpecialCharacters) {
  auto doc = ParseXml("<a attr=\"&quot;&lt;\">1 &lt; 2 &amp; 3</a>");
  ASSERT_TRUE(doc.ok());
  std::string out = SerializeXml(Root(**doc));
  auto reparsed = ParseXml(out);
  ASSERT_TRUE(reparsed.ok());
  NodeHandle a = FirstElementChild(Root(**reparsed));
  EXPECT_EQ(a.doc->StringValue(a.idx), "1 < 2 & 3");
}

TEST(XmlSerializerTest, SynthesizesNamespaceDeclarations) {
  auto doc = ParseXml("<o:a xmlns:o=\"urn:o\"><o:b/></o:a>");
  ASSERT_TRUE(doc.ok());
  std::string out = SerializeXml(Root(**doc));
  // The serializer may pick a different prefix; reparse and compare names.
  auto reparsed = ParseXml(out);
  ASSERT_TRUE(reparsed.ok()) << out;
  NodeHandle a = FirstElementChild(Root(**reparsed));
  EXPECT_EQ(NamePool::Global()->NamespaceOf(a.name()), "urn:o");
  EXPECT_EQ(NamePool::Global()->NamespaceOf(FirstElementChild(a).name()),
            "urn:o");
}

TEST(XmlDocumentTest, StringValueSkipsComments) {
  auto doc = ParseXml("<a>x<!-- no -->y<b>z</b></a>");
  ASSERT_TRUE(doc.ok());
  NodeHandle a = FirstElementChild(Root(**doc));
  EXPECT_EQ(a.doc->StringValue(a.idx), "xyz");
}


TEST(XmlParserTest, XsiTypeAnnotation) {
  auto doc = ParseXml(
      "<order xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">"
      "<price xsi:type=\"xs:double\">99.50</price>"
      "<id xsi:type=\"xs:integer\">17</id>"
      "<note xsi:type=\"xs:banana\">x</note>"
      "<plain>y</plain></order>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Document& d = **doc;
  std::vector<TypeAnnotation> annotations;
  for (NodeIdx i = 0; i < static_cast<NodeIdx>(d.node_count()); ++i) {
    if (d.node(i).kind == NodeKind::kElement &&
        d.node(i).name != kInvalidName) {
      annotations.push_back(d.node(i).annotation);
    }
  }
  // order, price, id, note, plain.
  ASSERT_EQ(annotations.size(), 5u);
  EXPECT_EQ(annotations[1], TypeAnnotation::kDouble);
  EXPECT_EQ(annotations[2], TypeAnnotation::kInteger);
  EXPECT_EQ(annotations[3], TypeAnnotation::kUntyped);  // unknown type name
  EXPECT_EQ(annotations[4], TypeAnnotation::kUntyped);
}

TEST(XmlParserTest, XsiTypeDisabledByOption) {
  XmlParseOptions options;
  options.honor_xsi_type = false;
  auto doc = ParseXml(
      "<a xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xsi:type=\"xs:double\">1</a>",
      options);
  ASSERT_TRUE(doc.ok());
  const Document& d = **doc;
  NodeIdx a = d.node(d.root()).first_child;
  EXPECT_EQ(d.node(a).annotation, TypeAnnotation::kUntyped);
}


// Round-trip property: serialize(parse(x)) must reparse to a deep-equal
// tree for every generated workload document (namespaces, mixed content,
// escapes and all).
class SerializerRoundTripTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SerializerRoundTripTest, WorkloadDocumentsSurvive) {
  OrdersWorkloadConfig config;
  config.seed = GetParam();
  config.use_namespaces = GetParam() % 2 == 0;
  config.multi_price_fraction = 0.3;
  config.string_price_fraction = 0.3;
  config.canadian_postal_fraction = 0.2;
  for (int i = 0; i < 25; ++i) {
    std::string xml = GenerateOrderXml(config, i);
    auto doc = ParseXml(xml);
    ASSERT_TRUE(doc.ok()) << xml;
    std::string serialized = SerializeXml(Root(**doc));
    auto reparsed = ParseXml(serialized);
    ASSERT_TRUE(reparsed.ok()) << serialized;
    std::string again = SerializeXml(Root(**reparsed));
    // Serialization is a fixed point after one round.
    EXPECT_EQ(serialized, again);
    // Same node structure (count by kind).
    EXPECT_EQ((*doc)->node_count(), (*reparsed)->node_count());
  }
  for (int i = 0; i < 25; ++i) {
    std::string xml = GenerateRssItemXml(i, GetParam());
    auto doc = ParseXml(xml);
    ASSERT_TRUE(doc.ok()) << xml;
    auto reparsed = ParseXml(SerializeXml(Root(**doc)));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ((*doc)->node_count(), (*reparsed)->node_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerRoundTripTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace xqdb
