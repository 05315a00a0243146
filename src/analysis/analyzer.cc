#include "analysis/analyzer.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/rewriter.h"
#include "analysis/static_types.h"
#include "common/str_util.h"
#include "core/eligibility.h"
#include "core/planner.h"
#include "core/predicate_extract.h"
#include "sql/schema.h"
#include "xdm/cast.h"
#include "xpath/containment.h"

namespace xqdb {

namespace {

/// One XML column source feeding the analyzed query body, with the XQuery
/// variables bound to it (SQL PASSING clause; empty for xmlcolumn sources).
struct Source {
  std::string table;
  std::string column;
  std::vector<std::string> vars;
};

/// Context of one XQuery body under analysis.
struct XqContext {
  std::string_view body_text;   // text the body's spans index into
  size_t offset = 0;            // body_text's offset in the reported text
  const Catalog* catalog = nullptr;
  bool xmlexists = false;       // body is an XMLEXISTS argument
  bool filtering = true;        // this body's predicates can eliminate rows
  std::vector<Source> sources;
};

Diagnostic* AddDiag(LintReport* report, DiagCode code, SourceSpan span,
                    std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = DiagInfo(code).severity;
  d.span = span;
  d.message = std::move(message);
  report->diagnostics.push_back(std::move(d));
  return &report->diagnostics.back();
}

void WalkSqlExpr(const SqlExpr& e,
                 const std::function<void(const SqlExpr&)>& fn) {
  fn(e);
  for (const auto& c : e.children) {
    if (c != nullptr) WalkSqlExpr(*c, fn);
  }
}

bool ContainsKind(const Expr& e, ExprKind kind) {
  return AnyExpr(e, [&](const Expr& x) { return x.kind == kind; });
}

bool PathHasPredicates(const Expr& e) {
  for (const PathStep& step : e.steps) {
    if (!step.predicates.empty()) return true;
  }
  return false;
}

/// True when an expression is a filter in spirit: a predicated path or a
/// comparison. Used by Tip 2 to tell "XMLQUERY extracts a value" apart from
/// "XMLQUERY was meant to filter".
bool ContainsFilter(const Expr& e) {
  return AnyExpr(e, [](const Expr& x) {
    return x.kind == ExprKind::kGeneralCompare ||
           x.kind == ExprKind::kValueCompare || PathHasPredicates(x);
  });
}

/// The Tip 3 trap: an XMLEXISTS body whose value is xs:boolean. Both true
/// and false are non-empty single-item sequences, so XMLEXISTS is constant
/// true.
bool IsBooleanBody(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kGeneralCompare:
    case ExprKind::kValueCompare:
    case ExprKind::kQuantified:
    case ExprKind::kOr:
    case ExprKind::kAnd:
    case ExprKind::kNodeIs:
      return true;
    case ExprKind::kCastAs:
      return e.castable_test;
    case ExprKind::kFunctionCall:
      return e.fn_name == "fn:exists" || e.fn_name == "fn:empty" ||
             e.fn_name == "fn:not" || e.fn_name == "fn:boolean" ||
             e.fn_name == "fn:contains" || e.fn_name == "fn:starts-with";
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Definition 1 clause refinement: when containment fails (XQL101), retry
// with one aspect neutralized on both sides; success pins the failure on
// that aspect and upgrades the note to the matching Tip 10/11/12 warning.
// ---------------------------------------------------------------------------

bool Contains(const Pattern& index, const Pattern& query) {
  auto r = PatternContains(index, query);
  return r.ok() && r.value();
}

Pattern StripNamespaces(Pattern p) {
  for (auto& alt : p.alternatives) {
    for (NormStep& step : alt) {
      step.test.name.ns = kAnyName;
    }
  }
  return p;
}

bool EndsWithTextStep(const Pattern& p) {
  for (const auto& alt : p.alternatives) {
    if (!alt.empty() &&
        alt.back().test.rank_mask == RankBit(NodeRank::kText)) {
      return true;
    }
  }
  return false;
}

Pattern DropTrailingTextStep(Pattern p) {
  for (auto& alt : p.alternatives) {
    if (!alt.empty() &&
        alt.back().test.rank_mask == RankBit(NodeRank::kText)) {
      alt.pop_back();
    }
  }
  return p;
}

bool EndsOnAttribute(const Pattern& p) {
  for (const auto& alt : p.alternatives) {
    if (!alt.empty() &&
        (alt.back().test.rank_mask & RankBit(NodeRank::kAttr)) != 0) {
      return true;
    }
  }
  return false;
}

Pattern ForceLastStepElement(Pattern p) {
  for (auto& alt : p.alternatives) {
    if (!alt.empty()) alt.back().test.rank_mask = RankBit(NodeRank::kElem);
  }
  return p;
}

void RefineContainmentFailure(const XmlIndex& index,
                              const ExtractedPredicate& pred,
                              LintReport* report) {
  const Pattern& ip = index.pattern();
  const Pattern& qp = pred.path;
  std::string subject =
      "index " + index.name() + " (" + ip.source_text + ") vs path " +
      pred.path_text;
  if (Contains(StripNamespaces(ip), StripNamespaces(qp))) {
    AddDiag(report, DiagCode::kXQL010_NamespaceMismatch, SourceSpan{},
            subject +
                ": the patterns differ only in namespaces — a default "
                "element namespace in one side but not the other makes "
                "names unequal even when the documents look identical");
    return;
  }
  if (EndsWithTextStep(ip) != EndsWithTextStep(qp) &&
      Contains(DropTrailingTextStep(ip), DropTrailingTextStep(qp))) {
    AddDiag(report, DiagCode::kXQL011_TextStepAlignment, SourceSpan{},
            subject +
                ": one side ends in a text() step and the other does not — "
                "the index keys element nodes while the query compares text "
                "nodes (or vice versa); align the trailing /text()");
    return;
  }
  if (EndsOnAttribute(ip) != EndsOnAttribute(qp) &&
      Contains(ForceLastStepElement(ip), ForceLastStepElement(qp))) {
    AddDiag(report, DiagCode::kXQL012_AttributeAxis, SourceSpan{},
            subject +
                ": the sides disagree on the attribute axis — '//' and "
                "child steps never reach attributes, and an element index "
                "never contains attribute nodes");
  }
}

/// The catalog-aware eligibility explainer: for every (extracted predicate,
/// candidate index) pair that is ineligible, report which Definition 1
/// clause rejected it — the same XQL10x code the planner stamps on its
/// EXPLAIN notes.
void ExplainEligibility(const ExtractionResult& extraction, const Source& src,
                        const XqContext& ctx, LintReport* report) {
  if (ctx.catalog == nullptr) return;
  auto table_result = ctx.catalog->GetTable(src.table);
  if (!table_result.ok()) return;
  const Table* table = table_result.value();
  std::vector<const XmlIndex*> indexes =
      table->indexes().XmlIndexesOn(src.column);
  for (const ExtractedPredicate& pred : extraction.predicates) {
    // Definition 1 is about value predicates; a value index rejecting a
    // purely structural predicate (exists(...)) is not a finding.
    if (!pred.has_value) continue;
    for (const XmlIndex* index : indexes) {
      EligibilityVerdict v = CheckEligibility(*index, pred);
      if (v.eligible) continue;
      DiagCode code = v.code != DiagCode::kNone
                          ? v.code
                          : DiagCode::kXQL101_PatternMismatch;
      AddDiag(report, code, SourceSpan{},
              "index " + index->name() + " cannot serve " + pred.description +
                  ": " + v.reason);
      if (code == DiagCode::kXQL101_PatternMismatch) {
        RefineContainmentFailure(*index, pred, report);
      }
    }
  }
}

/// XQL015: a purely structural '//' predicate over a summarized collection
/// is answerable from the strong DataGuide without opening a document — the
/// planner probes it as a PATH SUMMARY EXISTENCE PROBE whether or not a
/// VARCHAR index is eligible for it, and this note names the same code.
void NoteSummaryAnswerable(const ExtractionResult& extraction,
                           const Source& src, const XqContext& ctx,
                           LintReport* report) {
  if (ctx.catalog == nullptr) return;
  auto table_result = ctx.catalog->GetTable(src.table);
  if (!table_result.ok()) return;
  const PathSummary* summary =
      table_result.value()->path_summary(src.column);
  if (summary == nullptr) return;
  for (const ExtractedPredicate& pred : extraction.predicates) {
    if (pred.has_value) continue;
    bool has_descendant_step = false;
    for (const auto& alt : pred.path.alternatives) {
      for (const NormStep& step : alt) {
        if (step.skip) has_descendant_step = true;
      }
    }
    if (!has_descendant_step) continue;
    if (!PatternNfa::Compile(pred.path).ok()) continue;
    // Point at the '//' step itself: narrow the predicate's source span to
    // the first descendant-step occurrence inside it.
    SourceSpan span = pred.span;
    if (span.IsValid() && span.end <= ctx.body_text.size()) {
      size_t pos = ctx.body_text.substr(span.begin, span.end - span.begin)
                       .find("//");
      if (pos != std::string_view::npos) {
        span = SourceSpan{span.begin + pos, span.begin + pos + 2};
      }
    }
    AddDiag(report, DiagCode::kXQL015_SummaryAnswerable,
            span.Offset(ctx.offset),
            "existence of " + pred.path_text + " over " + src.table + "." +
                src.column +
                " is answerable from the collection's path summary alone: "
                "the '//' probe reads the DataGuide, not the documents "
                "(docs_scanned = 0 even with no index defined)");
    return;  // one note per source is enough
  }
}

/// XQL016–XQL020: the static type & cardinality inference pass
/// (analysis/static_types.h, DESIGN.md §13). Runs once per body — the
/// inferencer walks the AST itself — and maps each StaticFact to its
/// diagnostic. Unlike the extraction-driven rules this also fires in
/// non-filtering contexts: a SELECT-list XMLQUERY over a statically empty
/// path is still a typo worth reporting.
void CheckStaticFacts(const Expr& body, const XqContext& ctx,
                      LintReport* report) {
  std::vector<ColumnBinding> bindings;
  for (const Source& src : ctx.sources) {
    for (const std::string& var : src.vars) {
      bindings.push_back(ColumnBinding{var, src.table, src.column});
    }
  }
  StaticQueryFacts facts = InferStaticTypes(body, ctx.catalog, bindings);
  for (const StaticFact& f : facts.facts) {
    DiagCode code = DiagCode::kNone;
    switch (f.kind) {
      case StaticFact::Kind::kEmptyPath:
        code = DiagCode::kXQL016_StaticEmptyPath;
        break;
      case StaticFact::Kind::kImpossibleCast:
        code = DiagCode::kXQL017_ImpossibleCast;
        break;
      case StaticFact::Kind::kAlwaysFalseCompare:
        code = DiagCode::kXQL018_AlwaysFalseCompare;
        break;
      case StaticFact::Kind::kDeadBranch:
        code = DiagCode::kXQL019_DeadBranch;
        break;
      case StaticFact::Kind::kEmptyAggregate:
        code = DiagCode::kXQL020_EmptyAggregate;
        break;
    }
    std::string message = f.detail;
    if (f.kind == StaticFact::Kind::kEmptyPath && !f.collection_populated) {
      message +=
          " (the collection holds no documents yet — every path is empty "
          "until data is loaded)";
    }
    Diagnostic* d =
        AddDiag(report, code, f.span.Offset(ctx.offset), std::move(message));
    if (!f.suggestion.empty()) {
      d->suggestion = "did you mean " + f.suggestion + "? (nearest stored "
                      "path in " + f.table + "." + f.column + ")";
    }
  }
}

// ---------------------------------------------------------------------------
// The per-body rule pass.
// ---------------------------------------------------------------------------

void CheckNeComparison(const Expr& e, const XqContext& ctx,
                       LintReport* report) {
  if (e.kind != ExprKind::kGeneralCompare || e.cmp_op != CompareOp::kNe) {
    return;
  }
  Diagnostic* d = AddDiag(
      report, DiagCode::kXQL013_NeIsExistential, e.span.Offset(ctx.offset),
      "general '!=' is existential: it is true when ANY item of the "
      "sequence differs, which is not the negation of '=' — and a '!=' "
      "probe cannot be bounded, so no index range serves it");
  d->suggestion =
      "if 'no item equals' was intended, write fn:not(expr = value)";
}

void CheckTemporalLiteral(const Expr& e, const XqContext& ctx,
                          LintReport* report) {
  if (e.kind != ExprKind::kCastAs || e.castable_test) return;
  if (e.cast_target != AtomicType::kDate &&
      e.cast_target != AtomicType::kDateTime) {
    return;
  }
  if (e.children.empty() || e.children[0] == nullptr) return;
  const Expr& arg = *e.children[0];
  if (arg.kind != ExprKind::kLiteral) return;
  if (arg.literal.type() != AtomicType::kString &&
      arg.literal.type() != AtomicType::kUntypedAtomic) {
    return;
  }
  if (CastTo(arg.literal, e.cast_target).ok()) return;
  AddDiag(report, DiagCode::kXQL014_DateTimeLexical,
          e.span.Offset(ctx.offset),
          "\"" + arg.literal.string_value() + "\" is not a valid " +
              std::string(AtomicTypeName(e.cast_target)) +
              " lexical form — the cast raises a dynamic error at runtime "
              "(dates need zero-padded yyyy-mm-dd)");
}

void CheckUntypedComparison(const Expr& e, const XqContext& ctx,
                            LintReport* report) {
  if (e.kind != ExprKind::kGeneralCompare &&
      e.kind != ExprKind::kValueCompare) {
    return;
  }
  if (e.children.size() != 2 || e.children[0] == nullptr ||
      e.children[1] == nullptr) {
    return;
  }
  for (int i = 0; i < 2; ++i) {
    const Expr& lit = *e.children[static_cast<size_t>(i)];
    const Expr& other = *e.children[static_cast<size_t>(1 - i)];
    if (lit.kind != ExprKind::kLiteral || other.kind == ExprKind::kLiteral) {
      continue;
    }
    if (lit.literal.type() != AtomicType::kString &&
        lit.literal.type() != AtomicType::kUntypedAtomic) {
      continue;
    }
    const std::string& content = lit.literal.string_value();
    if (!ParseXsDouble(content).has_value()) continue;
    Diagnostic* d = AddDiag(
        report, DiagCode::kXQL001_UntypedComparison,
        e.span.Offset(ctx.offset),
        "comparison with the string literal \"" + content +
            "\" compares untyped document values as *strings* — "
            "lexicographic order, no double index can serve it; the "
            "numeric literal " + content + " compares as xs:double");
    if (lit.span.IsValid() && !content.empty() &&
        (std::isdigit(static_cast<unsigned char>(content[0])) ||
         content[0] == '-' || content[0] == '.')) {
      FixEdit fix;
      fix.span = lit.span.Offset(ctx.offset);
      fix.replacement = content;
      d->fix_edits.push_back(std::move(fix));
    } else {
      d->suggestion = "replace the quoted literal with a numeric one";
    }
    return;  // one finding per comparison
  }
}

void CheckFlwor(const Expr& e, const XqContext& ctx, LintReport* report) {
  if (e.kind != ExprKind::kFlwor) return;

  // Tip 7: a let binds the whole — possibly empty — sequence; a predicate
  // inside the bound path filters the sequence but never eliminates the
  // document, unless a where clause checks the variable.
  for (const FlworClause& clause : e.clauses) {
    if (clause.kind != FlworClause::Kind::kLet || clause.expr == nullptr) {
      continue;
    }
    if (!PathHasPredicates(*clause.expr)) continue;
    if (e.where != nullptr && ReferencesVar(*e.where, clause.var)) continue;
    Diagnostic* d = AddDiag(
        report, DiagCode::kXQL007_LetPreservesEmpty,
        clause.expr->span.Offset(ctx.offset),
        "let $" + clause.var +
            " binds the full (possibly empty) sequence: its predicate "
            "filters the sequence but never eliminates the document, so "
            "no index can pre-filter");
    if (e.where == nullptr && e.return_kw_pos > 0) {
      FixEdit fix;
      fix.span = SourceSpan{ctx.offset + e.return_kw_pos,
                            ctx.offset + e.return_kw_pos};
      fix.is_insert = true;
      fix.replacement = "where exists($" + clause.var + ") ";
      d->fix_edits.push_back(std::move(fix));
    } else {
      d->suggestion = "add 'and exists($" + clause.var +
                      ")' to the where clause, or iterate with 'for'";
    }
  }

  // Tip 8: a variable bound to a *constructed* element is an element, not a
  // document — an absolute path inside the FLWOR still navigates from the
  // context document root and never sees the constructed tree.
  bool binds_constructed = false;
  for (const FlworClause& clause : e.clauses) {
    if (clause.expr != nullptr &&
        ContainsKind(*clause.expr, ExprKind::kDirectElement)) {
      binds_constructed = true;
      break;
    }
  }
  if (binds_constructed) {
    auto flag_absolute = [&](const Expr& sub) {
      WalkExpr(sub, [&](const Expr& x) {
        if (x.kind == ExprKind::kPath && x.absolute) {
          AddDiag(report, DiagCode::kXQL008_DocumentVsElement,
                  x.span.Offset(ctx.offset),
                  "absolute path in a FLWOR that binds constructed "
                  "elements: '/' navigates from the *document* root, but a "
                  "constructed element has no document — this raises "
                  "XPDY0050 or selects nothing; navigate from the bound "
                  "variable instead");
        }
      });
    };
    for (const auto& c : e.children) {
      if (c != nullptr) flag_absolute(*c);
    }
    if (e.where != nullptr) flag_absolute(*e.where);
  }
}

void CheckConstructionBarrier(const Expr& e, const XqContext& ctx,
                              LintReport* report) {
  // Tip 9: navigating into constructed nodes. Construction *copies*, so
  // predicates applied after the constructor no longer touch stored
  // documents and no index applies (Query 26).
  if (e.kind != ExprKind::kPath || e.steps.empty()) return;
  const PathStep& first = e.steps[0];
  if (first.is_axis_step || first.expr == nullptr) return;
  if (!ContainsKind(*first.expr, ExprKind::kDirectElement)) return;
  if (e.steps.size() < 2 && first.predicates.empty()) return;
  Diagnostic* d = AddDiag(
      report, DiagCode::kXQL009_ConstructionBarrier,
      e.span.Offset(ctx.offset),
      "path navigates into constructed nodes: element construction copies "
      "its content, so the predicates apply to copies and indexes on the "
      "stored documents cannot pre-filter");
  if (auto composed = ComposeConstructedView(e, ctx.body_text)) {
    FixEdit fix;
    fix.span = e.span.Offset(ctx.offset);
    fix.replacement = *composed;
    d->fix_edits.push_back(std::move(fix));
  } else {
    d->suggestion =
        "compose the navigation with the view: apply the trailing steps "
        "inside the return clause instead of after the constructor "
        "(Query 26 -> Query 27)";
  }
}

void AnalyzeBody(const Expr& body, const XqContext& ctx, LintReport* report) {
  WalkExpr(body, [&](const Expr& e) {
    CheckNeComparison(e, ctx, report);
    CheckTemporalLiteral(e, ctx, report);
    CheckUntypedComparison(e, ctx, report);
    CheckFlwor(e, ctx, report);
    CheckConstructionBarrier(e, ctx, report);
  });

  CheckStaticFacts(body, ctx, report);

  // Tip 3: a boolean-valued XMLEXISTS body is constant true.
  if (ctx.xmlexists && IsBooleanBody(body)) {
    Diagnostic* d = AddDiag(
        report, DiagCode::kXQL003_BooleanExistsBody,
        body.span.Offset(ctx.offset),
        "XMLEXISTS tests for a non-empty result, and this body yields "
        "xs:boolean — both true and false are non-empty single items, so "
        "the predicate is ALWAYS true and the comparison silently stops "
        "filtering");
    // Deliberately no machine fix: the repair changes results — that IS
    // the reported bug.
    d->suggestion =
        "move the comparison into a path predicate: path[step = value] "
        "instead of path/step = value";
  }

  // Tip 5: a join across xmlcolumn sources inside one XQuery is a nested
  // loop; expressed in SQL the planner can order it and probe an index.
  if (ctx.sources.size() >= 2) {
    AddDiag(report, DiagCode::kXQL005_XQuerySideJoin, SourceSpan{},
            "this query joins " + std::to_string(ctx.sources.size()) +
                " XML column sources inside XQuery — evaluation is a "
                "nested loop; express the join in SQL (one XMLEXISTS per "
                "table) so the optimizer can pick the join order and probe "
                "an index");
  }

  // Extraction-driven findings: harvest the planner's tagged notes and run
  // the eligibility explainer. Only meaningful for filtering contexts.
  if (!ctx.filtering) return;
  for (const Source& src : ctx.sources) {
    ExtractionResult extraction =
        ExtractPredicates(body, src.table, src.column, src.vars);
    for (const std::string& note : extraction.notes) {
      DiagCode code = DiagCodeOfNote(note);
      // Untagged notes are planner-internal; XQL003 has a span-accurate
      // AST rule above.
      if (code == DiagCode::kNone ||
          code == DiagCode::kXQL003_BooleanExistsBody) {
        continue;
      }
      AddDiag(report, code, SourceSpan{}, note.substr(DiagTag(code).size()));
    }
    ExplainEligibility(extraction, src, ctx, report);
    NoteSummaryAnswerable(extraction, src, ctx, report);
  }
}

// ---------------------------------------------------------------------------
// SQL statement traversal.
// ---------------------------------------------------------------------------

void AddSource(std::vector<Source>* sources, const std::string& table,
               const std::string& column, const std::string& var) {
  for (Source& s : *sources) {
    if (s.table == table && s.column == column) {
      if (!var.empty()) s.vars.push_back(var);
      return;
    }
  }
  Source s;
  s.table = table;
  s.column = column;
  if (!var.empty()) s.vars.push_back(var);
  sources->push_back(std::move(s));
}

/// The XML columns feeding an embedded query: its PASSING arguments,
/// resolved by the planner's column rule over the FROM items it sees
/// (`schema` is nullptr without a catalog), and its xmlcolumn sources.
std::vector<Source> ResolveSources(const EmbeddedXQuery& q,
                                   const SelectStmt& sel,
                                   const FromSchema* schema,
                                   size_t visible_items) {
  std::vector<Source> out;
  if (schema != nullptr) {
    for (const PassingArg& arg : q.passing) {
      const ColumnSlot* slot = schema->PassedColumn(*arg.value, visible_items);
      if (slot == nullptr || !slot->xml) continue;
      AddSource(&out, sel.from[slot->item].table_name, slot->name,
                arg.var_name);
    }
  }
  if (q.parsed.body != nullptr) {
    for (const auto& [table, column] :
         CollectXmlColumnSources(*q.parsed.body)) {
      AddSource(&out, table, column, "");
    }
  }
  return out;
}

void LintEmbedded(const EmbeddedXQuery& q, const SelectStmt& sel,
                  const FromSchema* schema, size_t visible_items,
                  bool xmlexists, bool filtering, const Catalog* catalog,
                  LintReport* report) {
  if (q.parsed.body == nullptr) return;
  XqContext ctx;
  ctx.body_text = q.text;
  ctx.offset = q.text_offset;
  ctx.catalog = catalog;
  ctx.xmlexists = xmlexists;
  ctx.filtering = filtering;
  ctx.sources = ResolveSources(q, sel, schema, visible_items);
  AnalyzeBody(*q.parsed.body, ctx, report);
}

/// Sort by position (valid spans first, ascending), then drop exact
/// duplicates — the rule pass and the note harvest can both reach the same
/// finding through nested walks.
void FinalizeReport(LintReport* report) {
  auto key = [](const Diagnostic& d) {
    return std::tuple<bool, size_t, size_t, int, const std::string&>(
        !d.span.IsValid(), d.span.begin, d.span.end, static_cast<int>(d.code),
        d.message);
  };
  std::stable_sort(report->diagnostics.begin(), report->diagnostics.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     return key(a) < key(b);
                   });
  report->diagnostics.erase(
      std::unique(report->diagnostics.begin(), report->diagnostics.end(),
                  [&](const Diagnostic& a, const Diagnostic& b) {
                    return key(a) == key(b);
                  }),
      report->diagnostics.end());
}

}  // namespace

LintReport AnalyzeXQuery(const ParsedQuery& parsed, std::string_view text,
                         const Catalog* catalog) {
  LintReport report;
  if (parsed.body == nullptr) return report;
  XqContext ctx;
  ctx.body_text = text;
  ctx.catalog = catalog;
  ctx.filtering = true;
  for (const auto& [table, column] :
       CollectXmlColumnSources(*parsed.body)) {
    AddSource(&ctx.sources, table, column, "");
  }
  AnalyzeBody(*parsed.body, ctx, &report);
  FinalizeReport(&report);
  return report;
}

LintReport AnalyzeSqlStatement(const SqlStatement& stmt, std::string_view sql,
                               const Catalog* catalog) {
  (void)sql;
  LintReport report;
  if (stmt.kind != SqlStatement::Kind::kSelect || stmt.select == nullptr) {
    return report;
  }
  const SelectStmt& sel = *stmt.select;
  // PASSING arguments resolve by the planner's column rule; a FROM list
  // naming a missing table binds none.
  std::optional<FromSchema> schema;
  if (catalog != nullptr) {
    auto built = BuildFromSchema(sel, *catalog);
    if (built.ok()) schema = std::move(built).value();
  }
  const FromSchema* from = schema.has_value() ? &*schema : nullptr;
  const size_t all_items = sel.from.size();

  bool where_has_exists = false;
  if (sel.where != nullptr) {
    WalkSqlExpr(*sel.where, [&](const SqlExpr& e) {
      if (e.kind == SqlExprKind::kXmlExists) where_has_exists = true;
    });
  }

  if (sel.where != nullptr) {
    WalkSqlExpr(*sel.where, [&](const SqlExpr& e) {
      if (e.kind == SqlExprKind::kXmlExists && e.xquery != nullptr) {
        LintEmbedded(*e.xquery, sel, from, all_items, /*xmlexists=*/true,
                     /*filtering=*/true, catalog, &report);
      } else if (e.kind == SqlExprKind::kXmlQuery && e.xquery != nullptr) {
        LintEmbedded(*e.xquery, sel, from, all_items, /*xmlexists=*/false,
                     /*filtering=*/true, catalog, &report);
      }
    });
  }

  for (size_t item = 0; item < sel.from.size(); ++item) {
    const TableRef& ref = sel.from[item];
    if (ref.kind != TableRef::Kind::kXmlTable) continue;
    if (ref.row_query != nullptr) {
      LintEmbedded(*ref.row_query, sel, from, item, /*xmlexists=*/false,
                   /*filtering=*/true, catalog, &report);
    }
    // Tip 4: an XMLTABLE column path with a predicate never eliminates the
    // row — an empty column result becomes NULL and the row survives.
    for (const XmlTableColumn& col : ref.columns) {
      if (col.for_ordinality) continue;
      if (col.path_text.find('[') == std::string::npos) continue;
      SourceSpan span;
      if (col.path_offset > 0) {
        span = SourceSpan{col.path_offset,
                          col.path_offset + col.path_text.size()};
      }
      Diagnostic* d = AddDiag(
          &report, DiagCode::kXQL004_XmlTableColumnPred, span,
          "XMLTABLE column '" + col.name +
              "' has a predicate in its PATH: an empty column result "
              "becomes NULL and the row SURVIVES, so the predicate filters "
              "nothing and no index applies");
      d->suggestion =
          "move the predicate into the XMLTABLE row expression, where it "
          "eliminates rows and can use an index";
    }
  }

  for (const SelectItem& item : sel.items) {
    if (item.star || item.expr == nullptr) continue;
    WalkSqlExpr(*item.expr, [&](const SqlExpr& e) {
      if (e.kind != SqlExprKind::kXmlQuery || e.xquery == nullptr) return;
      LintEmbedded(*e.xquery, sel, from, all_items, /*xmlexists=*/false,
                   /*filtering=*/false, catalog, &report);
      // Tip 2: a predicate inside SELECT-list XMLQUERY shrinks each row's
      // result but eliminates no rows.
      if (e.xquery->parsed.body != nullptr &&
          ContainsFilter(*e.xquery->parsed.body) && !where_has_exists) {
        Diagnostic* d = AddDiag(
            &report, DiagCode::kXQL002_PredicateInSelect, e.span,
            "XMLQUERY in the SELECT list cannot eliminate rows: its "
            "predicates only shrink each row's result sequence, every row "
            "is still scanned, and empty results stay as empty values");
        d->suggestion =
            "add an XMLEXISTS with the same predicate to the WHERE clause "
            "— the planner can turn that into an index probe";
      }
    });
  }

  // Tip 6 rides on the planner itself: join candidates it had to skip
  // because the outer side comes later in the join order.
  if (catalog != nullptr) {
    Planner planner(catalog);
    auto plan = planner.PlanSelect(sel);
    if (plan.ok()) {
      for (const AccessPath& access : plan.value().access) {
        for (const std::string& note : access.notes) {
          DiagCode code = DiagCodeOfNote(note);
          if (code != DiagCode::kXQL006_JoinOrderUnavailable) continue;
          Diagnostic* d =
              AddDiag(&report, code, SourceSpan{},
                      note.substr(DiagTag(code).size()));
          d->suggestion =
              "reorder the FROM list so the passing side of the join "
              "probe comes first";
        }
      }
    }
  }

  FinalizeReport(&report);
  return report;
}

}  // namespace xqdb
