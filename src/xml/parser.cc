#include "xml/parser.h"

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "xml/qname.h"

namespace xqdb {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

/// One in-scope namespace binding frame. Bindings are pushed per start tag
/// and popped at the matching end tag.
struct NsBinding {
  std::string prefix;  // empty = default namespace
  std::string uri;
};

/// Maps an xsi:type value ("xs:double", "xsd:integer", ...) to a type
/// annotation; unknown names yield kUntyped.
TypeAnnotation XsiTypeToAnnotation(std::string_view value) {
  size_t colon = value.find(':');
  std::string_view local =
      colon == std::string_view::npos ? value : value.substr(colon + 1);
  if (local == "double" || local == "float" || local == "decimal") {
    return TypeAnnotation::kDouble;
  }
  if (local == "integer" || local == "int" || local == "long" ||
      local == "short") {
    return TypeAnnotation::kInteger;
  }
  if (local == "string") return TypeAnnotation::kString;
  if (local == "boolean") return TypeAnnotation::kBoolean;
  if (local == "date") return TypeAnnotation::kDate;
  if (local == "dateTime") return TypeAnnotation::kDateTime;
  return TypeAnnotation::kUntyped;
}

class XmlParser {
 public:
  XmlParser(std::string_view input, const XmlParseOptions& options)
      : in_(input), options_(options) {}

  Result<std::unique_ptr<Document>> Parse() {
    doc_ = std::make_unique<Document>();
    NodeIdx doc_node = doc_->AddDocumentNode();
    SkipProlog();
    XQDB_RETURN_IF_ERROR(ParseContent(doc_node, /*depth=*/0));
    SkipMisc();
    if (pos_ != in_.size()) {
      return Status::ParseError("trailing content after document element at " +
                                Location());
    }
    // A well-formed document has exactly one element child of the doc node.
    int element_children = 0;
    for (NodeIdx c = doc_->node(doc_node).first_child; c != kNullNode;
         c = doc_->node(c).next_sibling) {
      if (doc_->node(c).kind == NodeKind::kElement) ++element_children;
    }
    if (element_children != 1) {
      return Status::ParseError(
          "document must have exactly one root element");
    }
    return std::move(doc_);
  }

 private:
  std::string Location() const {
    return "offset " + std::to_string(pos_);
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool LookingAt(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\r' ||
                        Peek() == '\n')) {
      ++pos_;
    }
  }

  void SkipProlog() {
    SkipWs();
    if (LookingAt("<?xml")) {
      size_t end = in_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
    }
    SkipMisc();
  }

  // Skips comments, PIs and whitespace outside the document element.
  void SkipMisc() {
    for (;;) {
      SkipWs();
      if (LookingAt("<!--")) {
        size_t end = in_.find("-->", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
      } else if (LookingAt("<?")) {
        size_t end = in_.find("?>", pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
      } else if (LookingAt("<!DOCTYPE")) {
        // Skip to the closing '>' (internal subsets unsupported).
        size_t end = in_.find('>', pos_);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 1;
      } else {
        return;
      }
    }
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Status::ParseError("expected name at " + Location());
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(in_.substr(start, pos_ - start));
  }

  /// Interns a name, failing visibly when the pool is full.
  static Result<NameId> InternName(std::string_view ns_uri,
                                   std::string_view local) {
    NameId id = NamePool::Global()->Intern(ns_uri, local);
    if (id == kInvalidName) return NamePool::FullError();
    return id;
  }

  /// Resolves "p:local" against in-scope bindings. `for_attribute`
  /// suppresses the default namespace per the XML Namespaces rec (and the
  /// paper's §3.7 note that default namespaces do not apply to attributes).
  Result<NameId> ResolveQName(std::string_view qname, bool for_attribute) {
    size_t colon = qname.find(':');
    std::string_view prefix, local;
    if (colon == std::string_view::npos) {
      local = qname;
    } else {
      prefix = qname.substr(0, colon);
      local = qname.substr(colon + 1);
    }
    if (prefix.empty()) {
      return InternName(for_attribute ? "" : DefaultNamespace(), local);
    }
    if (prefix == "xml") {
      return InternName("http://www.w3.org/XML/1998/namespace", local);
    }
    for (auto it = ns_stack_.rbegin(); it != ns_stack_.rend(); ++it) {
      if (it->prefix == prefix) return InternName(it->uri, local);
    }
    return Status::ParseError("undeclared namespace prefix '" +
                              std::string(prefix) + "' at " + Location());
  }

  std::string_view DefaultNamespace() const {
    for (auto it = ns_stack_.rbegin(); it != ns_stack_.rend(); ++it) {
      if (it->prefix.empty()) return it->uri;
    }
    return "";
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Status::ParseError("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out.push_back('<');
      } else if (ent == "gt") {
        out.push_back('>');
      } else if (ent == "amp") {
        out.push_back('&');
      } else if (ent == "quot") {
        out.push_back('"');
      } else if (ent == "apos") {
        out.push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        // Numeric character reference. Parse the digits by hand: strtol
        // would silently accept signs, trailing junk, and overflow.
        std::string_view digits = ent.substr(1);
        unsigned base = 10;
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          base = 16;
          digits.remove_prefix(1);
        }
        if (digits.empty()) {
          return Status::ParseError("empty character reference '&" +
                                    std::string(ent) + ";'");
        }
        unsigned long code = 0;
        for (char c : digits) {
          unsigned d;
          if (c >= '0' && c <= '9') {
            d = static_cast<unsigned>(c - '0');
          } else if (base == 16 && c >= 'a' && c <= 'f') {
            d = static_cast<unsigned>(c - 'a' + 10);
          } else if (base == 16 && c >= 'A' && c <= 'F') {
            d = static_cast<unsigned>(c - 'A' + 10);
          } else {
            return Status::ParseError("malformed character reference '&" +
                                      std::string(ent) + ";'");
          }
          code = code * base + d;
          if (code > 0x10FFFF) code = 0x110000;  // overflow clamp: invalid
        }
        // XML 1.0 Char production: #x9 | #xA | #xD | [#x20-#xD7FF] |
        // [#xE000-#xFFFD] | [#x10000-#x10FFFF]. Surrogate code points and
        // anything past U+10FFFF are ill-formed, not encodable garbage.
        bool valid = code == 0x9 || code == 0xA || code == 0xD ||
                     (code >= 0x20 && code <= 0xD7FF) ||
                     (code >= 0xE000 && code <= 0xFFFD) ||
                     (code >= 0x10000 && code <= 0x10FFFF);
        if (!valid) {
          return Status::ParseError(
              "character reference '&" + std::string(ent) +
              ";' is outside the XML Char range");
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xF0 | (code >> 18)));
          out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
      } else {
        return Status::ParseError("unknown entity '&" + std::string(ent) +
                                  ";'");
      }
      i = semi;
    }
    return out;
  }

  /// Parses element content (children of `parent`) until the matching end
  /// tag (or end of input at depth 0).
  Status ParseContent(NodeIdx parent, int depth) {
    std::string pending_text;
    bool pending_has_cdata = false;
    auto flush_text = [&]() {
      if (pending_text.empty()) return;
      bool keep = !options_.strip_boundary_whitespace ||
                  !IsAllWhitespace(pending_text) || pending_has_cdata;
      if (keep) doc_->AddText(parent, std::move(pending_text));
      pending_text.clear();
      pending_has_cdata = false;
    };

    while (!AtEnd()) {
      if (Peek() == '<') {
        if (LookingAt("</")) {
          flush_text();
          return Status::OK();  // Caller consumes the end tag.
        }
        if (LookingAt("<!--")) {
          flush_text();
          size_t end = in_.find("-->", pos_ + 4);
          if (end == std::string_view::npos) {
            return Status::ParseError("unterminated comment");
          }
          doc_->AddComment(parent,
                           std::string(in_.substr(pos_ + 4, end - pos_ - 4)));
          pos_ = end + 3;
          continue;
        }
        if (LookingAt("<![CDATA[")) {
          size_t end = in_.find("]]>", pos_ + 9);
          if (end == std::string_view::npos) {
            return Status::ParseError("unterminated CDATA section");
          }
          pending_text.append(in_.substr(pos_ + 9, end - pos_ - 9));
          pending_has_cdata = true;
          pos_ = end + 3;
          continue;
        }
        if (LookingAt("<?")) {
          flush_text();
          pos_ += 2;
          XQDB_ASSIGN_OR_RETURN(std::string target, ParseName());
          size_t end = in_.find("?>", pos_);
          if (end == std::string_view::npos) {
            return Status::ParseError("unterminated processing instruction");
          }
          std::string content(TrimWhitespace(in_.substr(pos_, end - pos_)));
          XQDB_ASSIGN_OR_RETURN(NameId pi_name, InternName("", target));
          doc_->AddProcessingInstruction(parent, pi_name, content);
          pos_ = end + 2;
          continue;
        }
        flush_text();
        XQDB_RETURN_IF_ERROR(ParseElement(parent, depth));
        continue;
      }
      // Character data.
      size_t next = in_.find_first_of("<&", pos_);
      if (next == std::string_view::npos) next = in_.size();
      if (next == pos_ && Peek() == '&') {
        size_t semi = in_.find(';', pos_);
        if (semi == std::string_view::npos) {
          return Status::ParseError("unterminated entity reference at " +
                                    Location());
        }
        XQDB_ASSIGN_OR_RETURN(
            std::string decoded,
            DecodeEntities(in_.substr(pos_, semi - pos_ + 1)));
        pending_text += decoded;
        pos_ = semi + 1;
      } else {
        pending_text.append(in_.substr(pos_, next - pos_));
        pos_ = next;
      }
    }
    flush_text();
    if (depth != 0) return Status::ParseError("unexpected end of input");
    return Status::OK();
  }

  Status ParseElement(NodeIdx parent, int depth) {
    ++pos_;  // consume '<'
    XQDB_ASSIGN_OR_RETURN(std::string tag_name, ParseName());
    if (!AtEnd() && Peek() == ':') {
      ++pos_;
      XQDB_ASSIGN_OR_RETURN(std::string local, ParseName());
      tag_name += ":" + local;
    }

    // First pass over attributes: collect raw (name, value) pairs and push
    // namespace declarations so they are in scope for resolving this very
    // tag's names.
    size_t ns_mark = ns_stack_.size();
    std::vector<std::pair<std::string, std::string>> attrs;
    for (;;) {
      SkipWs();
      if (AtEnd()) return Status::ParseError("unterminated start tag");
      if (Peek() == '>' || LookingAt("/>")) break;
      XQDB_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      if (!AtEnd() && Peek() == ':') {
        ++pos_;
        XQDB_ASSIGN_OR_RETURN(std::string local, ParseName());
        attr_name += ":" + local;
      }
      SkipWs();
      if (AtEnd() || Peek() != '=') {
        return Status::ParseError("expected '=' after attribute name at " +
                                  Location());
      }
      ++pos_;
      SkipWs();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Status::ParseError("expected quoted attribute value at " +
                                  Location());
      }
      char quote = Peek();
      ++pos_;
      size_t end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated attribute value");
      }
      XQDB_ASSIGN_OR_RETURN(std::string value,
                            DecodeEntities(in_.substr(pos_, end - pos_)));
      pos_ = end + 1;

      if (attr_name == "xmlns") {
        ns_stack_.push_back(NsBinding{"", value});
      } else if (attr_name.rfind("xmlns:", 0) == 0) {
        ns_stack_.push_back(NsBinding{attr_name.substr(6), value});
      } else {
        attrs.emplace_back(std::move(attr_name), std::move(value));
      }
    }

    XQDB_ASSIGN_OR_RETURN(NameId elem_name,
                          ResolveQName(tag_name, /*for_attribute=*/false));
    NodeIdx elem = doc_->AddElement(parent, elem_name);
    if (options_.honor_xsi_type) {
      for (const auto& [raw_name, value] : attrs) {
        // Match any prefix bound to the XMLSchema-instance namespace.
        size_t colon = raw_name.find(':');
        if (colon == std::string::npos || raw_name.substr(colon + 1) != "type") {
          continue;
        }
        auto resolved = ResolveQName(raw_name, /*for_attribute=*/true);
        if (!resolved.ok() ||
            NamePool::Global()->NamespaceOf(resolved.value()) !=
                "http://www.w3.org/2001/XMLSchema-instance") {
          continue;
        }
        doc_->SetAnnotation(elem, XsiTypeToAnnotation(value));
      }
    }
    for (auto& [raw_name, value] : attrs) {
      XQDB_ASSIGN_OR_RETURN(NameId attr_id,
                            ResolveQName(raw_name, /*for_attribute=*/true));
      // Duplicate attribute check.
      for (NodeIdx a = doc_->node(elem).first_attr; a != kNullNode;
           a = doc_->node(a).next_sibling) {
        if (doc_->node(a).name == attr_id) {
          return Status::ParseError("duplicate attribute '" + raw_name + "'");
        }
      }
      doc_->AddAttribute(elem, attr_id, std::move(value));
    }

    if (LookingAt("/>")) {
      pos_ += 2;
      ns_stack_.resize(ns_mark);
      return Status::OK();
    }
    ++pos_;  // consume '>'
    XQDB_RETURN_IF_ERROR(ParseContent(elem, depth + 1));
    // Consume the end tag and verify it matches.
    if (!LookingAt("</")) {
      return Status::ParseError("expected end tag at " + Location());
    }
    pos_ += 2;
    XQDB_ASSIGN_OR_RETURN(std::string end_name, ParseName());
    if (!AtEnd() && Peek() == ':') {
      ++pos_;
      XQDB_ASSIGN_OR_RETURN(std::string local, ParseName());
      end_name += ":" + local;
    }
    if (end_name != tag_name) {
      return Status::ParseError("mismatched end tag </" + end_name +
                                "> for <" + tag_name + ">");
    }
    SkipWs();
    if (AtEnd() || Peek() != '>') {
      return Status::ParseError("malformed end tag at " + Location());
    }
    ++pos_;
    ns_stack_.resize(ns_mark);
    return Status::OK();
  }

  std::string_view in_;
  size_t pos_ = 0;
  XmlParseOptions options_;
  std::unique_ptr<Document> doc_;
  std::vector<NsBinding> ns_stack_;
};

}  // namespace

Result<std::unique_ptr<Document>> ParseXml(std::string_view input,
                                           const XmlParseOptions& options) {
  XmlParser parser(input, options);
  return parser.Parse();
}

}  // namespace xqdb
