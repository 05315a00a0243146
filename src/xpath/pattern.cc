#include "xpath/pattern.h"

#include <cctype>
#include <map>

namespace xqdb {

namespace {

/// Intersection of two id constraints, each exact or kAnyName; false when
/// two different exact ids conflict.
bool IntersectPart(int32_t a, int32_t b, int32_t* out) {
  if (a == kAnyName) {
    *out = b;
  } else if (b == kAnyName || a == b) {
    *out = a;
  } else {
    return false;
  }
  return true;
}

}  // namespace

StepTest IntersectTests(const StepTest& a, const StepTest& b) {
  StepTest out;
  out.rank_mask = a.rank_mask & b.rank_mask;
  if (out.rank_mask == 0) return out;
  if (!IntersectPart(a.name.ns, b.name.ns, &out.name.ns) ||
      !IntersectPart(a.name.local, b.name.local, &out.name.local)) {
    out.rank_mask = 0;  // conflicting exact names
  }
  return out;
}

StepTest ElementTest(NameTest name) {
  return StepTest{RankBit(NodeRank::kElem), name};
}

StepTest AttributeTest(NameTest name) {
  return StepTest{RankBit(NodeRank::kAttr), name};
}

StepTest KindTextTest() { return StepTest{RankBit(NodeRank::kText), {}}; }

StepTest KindCommentTest() {
  return StepTest{RankBit(NodeRank::kComment), {}};
}

StepTest KindPiTest(LocalId target) {
  return StepTest{RankBit(NodeRank::kPi), NameTest{kAnyName, target}};
}

StepTest ChildNodeTest() {
  return StepTest{static_cast<uint8_t>(
                      RankBit(NodeRank::kElem) | RankBit(NodeRank::kText) |
                      RankBit(NodeRank::kComment) | RankBit(NodeRank::kPi)),
                  {}};
}

StepTest AnyAttributeTest() { return StepTest{RankBit(NodeRank::kAttr), {}}; }

Pattern MakePattern(std::vector<std::vector<NormStep>> alternatives) {
  Pattern p;
  p.alternatives = std::move(alternatives);
  return p;
}

namespace {

enum class PatternAxis {
  kChild,
  kAttribute,
  kSelf,
  kDescendant,
  kDescendantOrSelf,
};

/// The raw node test as written, before axis-specific rank restriction.
/// Unprefixed names carry kNoNamespace until the axis decides whether the
/// default element namespace applies.
struct RawTest {
  enum class Kind { kName, kAnyKindNode, kText, kComment, kPi } kind;
  NameTest name;  // local = PI target for kPi
};

class PatternParser {
 public:
  explicit PatternParser(std::string_view text) : in_(text) {}

  Result<Pattern> Parse() {
    XQDB_RETURN_IF_ERROR(ParseNamespaceDecls());
    Pattern out;
    out.source_text = std::string(in_);
    out.alternatives.push_back({});

    SkipWs();
    if (AtEnd() || Peek() != '/') {
      return Status::ParseError(
          "index pattern must begin with '/' or '//': " + std::string(in_));
    }
    bool saw_step = false;
    while (!AtEnd()) {
      SkipWs();
      if (AtEnd()) break;
      if (Peek() != '/') {
        return Status::ParseError("expected '/' in pattern at offset " +
                                  std::to_string(pos_));
      }
      ++pos_;
      bool double_slash = false;
      if (!AtEnd() && Peek() == '/') {
        double_slash = true;
        ++pos_;
      }
      XQDB_RETURN_IF_ERROR(ParseStep(double_slash, &out));
      saw_step = true;
      SkipWs();
    }
    if (!saw_step) {
      return Status::ParseError("empty index pattern");
    }
    // An alternative that consumed nothing (only self::node() steps from
    // the root) matches exactly the document node; fold such alternatives
    // into the matches_document_node flag. A pattern whose steps conflict
    // (e.g. /a/b/self::c) is accepted and simply matches nothing — the
    // tolerant choice, matching how such an index would just stay empty.
    std::vector<std::vector<NormStep>> kept;
    for (auto& alt : out.alternatives) {
      if (alt.empty()) {
        out.matches_document_node = true;
      } else {
        kept.push_back(std::move(alt));
      }
    }
    out.alternatives = std::move(kept);
    return out;
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  bool Consume(std::string_view s) {
    if (in_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  Result<std::string> ParseNCName() {
    SkipWs();
    if (AtEnd() || !(std::isalpha(static_cast<unsigned char>(Peek())) ||
                     Peek() == '_')) {
      return Status::ParseError("expected name at offset " +
                                std::to_string(pos_));
    }
    size_t start = pos_;
    while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '.')) {
      ++pos_;
    }
    return std::string(in_.substr(start, pos_ - start));
  }

  Result<std::string> ParseStringLiteral() {
    SkipWs();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Status::ParseError("expected string literal in pattern prolog");
    }
    char quote = Peek();
    ++pos_;
    size_t end = in_.find(quote, pos_);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated string literal");
    }
    std::string s(in_.substr(pos_, end - pos_));
    pos_ = end + 1;
    return s;
  }

  Status ParseNamespaceDecls() {
    for (;;) {
      SkipWs();
      size_t mark = pos_;
      if (!Consume("declare")) return Status::OK();
      SkipWs();
      if (Consume("default")) {
        SkipWs();
        if (!Consume("element")) {
          return Status::ParseError("expected 'element' in default namespace "
                                    "declaration");
        }
        SkipWs();
        if (!Consume("namespace")) {
          return Status::ParseError("expected 'namespace'");
        }
        XQDB_ASSIGN_OR_RETURN(std::string uri, ParseStringLiteral());
        XQDB_ASSIGN_OR_RETURN(default_ns_,
                              NamePool::Global()->InternNamespace(uri));
      } else if (Consume("namespace")) {
        XQDB_ASSIGN_OR_RETURN(std::string prefix, ParseNCName());
        SkipWs();
        if (!Consume("=")) {
          return Status::ParseError("expected '=' in namespace declaration");
        }
        XQDB_ASSIGN_OR_RETURN(std::string uri, ParseStringLiteral());
        XQDB_ASSIGN_OR_RETURN(prefixes_[prefix],
                              NamePool::Global()->InternNamespace(uri));
      } else {
        pos_ = mark;
        return Status::OK();
      }
      SkipWs();
      if (!Consume(";")) {
        return Status::ParseError("expected ';' after namespace declaration");
      }
    }
  }

  Result<PatternAxis> ParseAxis() {
    SkipWs();
    if (!AtEnd() && Peek() == '@') {
      ++pos_;
      return PatternAxis::kAttribute;
    }
    size_t mark = pos_;
    // Try "axisname::".
    if (!AtEnd() && std::isalpha(static_cast<unsigned char>(Peek()))) {
      size_t start = pos_;
      while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                          Peek() == '-')) {
        ++pos_;
      }
      std::string_view name = in_.substr(start, pos_ - start);
      if (Consume("::")) {
        if (name == "child") return PatternAxis::kChild;
        if (name == "attribute") return PatternAxis::kAttribute;
        if (name == "self") return PatternAxis::kSelf;
        if (name == "descendant") return PatternAxis::kDescendant;
        if (name == "descendant-or-self") {
          return PatternAxis::kDescendantOrSelf;
        }
        return Status::ParseError("unsupported axis '" + std::string(name) +
                                  "' in index pattern");
      }
      pos_ = mark;
    }
    return PatternAxis::kChild;
  }

  Result<RawTest> ParseNodeTest() {
    SkipWs();
    RawTest t;
    if (AtEnd()) return Status::ParseError("expected node test");
    if (Peek() == '[') {
      return Status::ParseError(
          "predicates are not allowed in index patterns");
    }
    NamePool* pool = NamePool::Global();
    if (Peek() == '*') {
      ++pos_;
      t.kind = RawTest::Kind::kName;
      if (!AtEnd() && Peek() == ':') {
        ++pos_;
        XQDB_ASSIGN_OR_RETURN(std::string local, ParseNCName());
        XQDB_ASSIGN_OR_RETURN(t.name.local, pool->InternLocal(local));
      }
      return t;
    }
    XQDB_ASSIGN_OR_RETURN(std::string first, ParseNCName());
    if (!AtEnd() && Peek() == '(') {
      ++pos_;
      SkipWs();
      if (first == "node") {
        t.kind = RawTest::Kind::kAnyKindNode;
      } else if (first == "text") {
        t.kind = RawTest::Kind::kText;
      } else if (first == "comment") {
        t.kind = RawTest::Kind::kComment;
      } else if (first == "processing-instruction") {
        t.kind = RawTest::Kind::kPi;
        SkipWs();
        if (!AtEnd() && Peek() != ')') {
          XQDB_ASSIGN_OR_RETURN(std::string target, ParseNCName());
          XQDB_ASSIGN_OR_RETURN(t.name.local, pool->InternLocal(target));
        }
      } else {
        return Status::ParseError("unknown kind test '" + first + "()'");
      }
      SkipWs();
      if (AtEnd() || Peek() != ')') {
        return Status::ParseError("expected ')' in kind test");
      }
      ++pos_;
      return t;
    }
    t.kind = RawTest::Kind::kName;
    if (!AtEnd() && Peek() == ':' && pos_ + 1 < in_.size() &&
        in_[pos_ + 1] != ':') {
      ++pos_;
      auto it = prefixes_.find(first);
      if (it == prefixes_.end()) {
        return Status::ParseError("undeclared namespace prefix '" + first +
                                  "' in index pattern");
      }
      t.name.ns = it->second;
      if (!AtEnd() && Peek() == '*') {
        ++pos_;
      } else {
        XQDB_ASSIGN_OR_RETURN(std::string local, ParseNCName());
        XQDB_ASSIGN_OR_RETURN(t.name.local, pool->InternLocal(local));
      }
      return t;
    }
    // Namespace of an unprefixed name test is resolved per axis later:
    // default element namespace for element steps, empty for attributes.
    t.name.ns = kNoNamespace;
    XQDB_ASSIGN_OR_RETURN(t.name.local, pool->InternLocal(first));
    return t;
  }

  /// Maps a raw test to a symbol predicate for child/descendant axes
  /// (principal node kind: element; never matches attributes).
  StepTest NonAttrRestrict(const RawTest& t) const {
    switch (t.kind) {
      case RawTest::Kind::kName: {
        NameTest name = t.name;
        if (name.ns == kNoNamespace) name.ns = default_ns_;
        return ElementTest(name);
      }
      case RawTest::Kind::kAnyKindNode:
        return ChildNodeTest();
      case RawTest::Kind::kText:
        return KindTextTest();
      case RawTest::Kind::kComment:
        return KindCommentTest();
      case RawTest::Kind::kPi:
        return KindPiTest(t.name.local);
    }
    return StepTest{};
  }

  /// Maps a raw test to a symbol predicate for the attribute axis. Note:
  /// the default element namespace does NOT apply (paper §3.7).
  StepTest AttrRestrict(const RawTest& t) const {
    switch (t.kind) {
      case RawTest::Kind::kName:
        return AttributeTest(t.name);
      case RawTest::Kind::kAnyKindNode:
        return AnyAttributeTest();
      case RawTest::Kind::kText:
      case RawTest::Kind::kComment:
      case RawTest::Kind::kPi:
        return StepTest{};  // Matches nothing on the attribute axis.
    }
    return StepTest{};
  }

  /// Self-axis predicate: name tests match elements; kind tests their kind;
  /// node() everything.
  StepTest SelfRestrict(const RawTest& t) const {
    if (t.kind == RawTest::Kind::kAnyKindNode) {
      StepTest any = ChildNodeTest();
      any.rank_mask |= RankBit(NodeRank::kAttr);
      return any;
    }
    return NonAttrRestrict(t);
  }

  void AppendConsume(Pattern* out, const StepTest& test, bool skip) {
    if (test.IsEmpty()) {
      out->alternatives.clear();
      return;
    }
    for (auto& alt : out->alternatives) {
      alt.push_back(NormStep{skip, test});
    }
  }

  /// Folds a self::T step into every alternative by intersecting with the
  /// last consumed symbol's test.
  void ApplySelf(Pattern* out, const RawTest& t) {
    StepTest self_test = SelfRestrict(t);
    std::vector<std::vector<NormStep>> kept;
    for (auto& alt : out->alternatives) {
      if (alt.empty()) {
        // self:: on the document node: only node() matches; the alternative
        // stays empty (it becomes a doc-node match if still empty at the
        // end of the pattern).
        if (t.kind == RawTest::Kind::kAnyKindNode) {
          kept.push_back(alt);
        }
        continue;
      }
      StepTest merged = IntersectTests(alt.back().test, self_test);
      if (merged.IsEmpty()) continue;
      alt.back().test = merged;
      kept.push_back(std::move(alt));
    }
    out->alternatives = std::move(kept);
  }

  Status ParseStep(bool double_slash, Pattern* out) {
    XQDB_ASSIGN_OR_RETURN(PatternAxis axis, ParseAxis());
    XQDB_ASSIGN_OR_RETURN(RawTest test, ParseNodeTest());

    switch (axis) {
      case PatternAxis::kChild:
        AppendConsume(out, NonAttrRestrict(test), double_slash);
        break;
      case PatternAxis::kAttribute:
        AppendConsume(out, AttrRestrict(test), double_slash);
        break;
      case PatternAxis::kDescendant:
        AppendConsume(out, NonAttrRestrict(test), /*skip=*/true);
        break;
      case PatternAxis::kSelf:
        if (double_slash) {
          // //self::T  ==  descendant-or-self::T.
          Pattern self_branch = *out;
          ApplySelf(&self_branch, test);
          StepTest consume = SelfRestrict(test);
          consume.rank_mask &= static_cast<uint8_t>(
              ~RankBit(NodeRank::kAttr));  // descendants are never attrs
          AppendConsume(out, consume, /*skip=*/true);
          for (auto& alt : self_branch.alternatives) {
            out->alternatives.push_back(std::move(alt));
          }
          out->matches_document_node |= self_branch.matches_document_node;
        } else {
          ApplySelf(out, test);
        }
        break;
      case PatternAxis::kDescendantOrSelf: {
        Pattern self_branch = *out;
        ApplySelf(&self_branch, test);
        StepTest consume = SelfRestrict(test);
        consume.rank_mask &=
            static_cast<uint8_t>(~RankBit(NodeRank::kAttr));
        AppendConsume(out, consume, /*skip=*/true);
        for (auto& alt : self_branch.alternatives) {
          out->alternatives.push_back(std::move(alt));
        }
        out->matches_document_node |= self_branch.matches_document_node;
        break;
      }
    }
    return Status::OK();
  }

  std::string_view in_;
  size_t pos_ = 0;
  NsId default_ns_ = kNoNamespace;
  std::map<std::string, NsId> prefixes_;
};

std::string NamePartToString(const NameTest& t) {
  NamePool* pool = NamePool::Global();
  std::string local =
      t.local_any() ? "*" : std::string(pool->LocalText(t.local));
  if (t.ns_any()) return t.local_any() ? "*" : "*:" + local;
  std::string_view ns = pool->NamespaceText(t.ns);
  return ns.empty() ? local : "{" + std::string(ns) + "}" + local;
}

std::string TestToString(const StepTest& t) {
  const uint8_t elem = RankBit(NodeRank::kElem);
  const uint8_t attr = RankBit(NodeRank::kAttr);
  const uint8_t child_node = ChildNodeTest().rank_mask;
  if (t.rank_mask == attr) return "@" + NamePartToString(t.name);
  if (t.rank_mask == elem) return NamePartToString(t.name);
  if (t.rank_mask == RankBit(NodeRank::kText)) return "text()";
  if (t.rank_mask == RankBit(NodeRank::kComment)) return "comment()";
  if (t.rank_mask == RankBit(NodeRank::kPi)) {
    return "processing-instruction(" +
           std::string(t.name.local_any()
                           ? ""
                           : NamePool::Global()->LocalText(t.name.local)) +
           ")";
  }
  if (t.rank_mask == child_node && t.name == NameTest{}) return "node()";
  // Mixed rank sets (rare): verbose fallback.
  std::string s = "{";
  static const char* kRankNames[] = {"elem", "attr", "text", "comment", "pi"};
  bool first = true;
  for (int r = 0; r < kNumRanks; ++r) {
    if (t.rank_mask & (1u << r)) {
      if (!first) s += "|";
      s += kRankNames[r];
      first = false;
    }
  }
  return s + " " + NamePartToString(t.name) + "}";
}

}  // namespace

Result<Pattern> ParsePattern(std::string_view text) {
  PatternParser parser(text);
  return parser.Parse();
}

std::string PatternToString(const Pattern& p) {
  std::string out;
  for (size_t i = 0; i < p.alternatives.size(); ++i) {
    if (i > 0) out += " | ";
    for (const NormStep& step : p.alternatives[i]) {
      out += step.skip ? "//" : "/";
      out += TestToString(step.test);
    }
    if (p.alternatives[i].empty()) out += "(root)";
  }
  if (p.matches_document_node) out += " +doc";
  return out;
}

}  // namespace xqdb
