#include "core/planner.h"

#include <set>

#include "core/eligibility.h"
#include "core/predicate_extract.h"

namespace xqdb {

namespace {

/// A query shape a covering index can answer without touching documents:
/// one aggregate over one predicate-free simple path rooted at
/// db2-fn:xmlcolumn. The value exactness argument needs every gathered
/// value to be the untyped-to-double cast the index key IS — which holds
/// for stored documents (ParseXml annotates everything untyped) and is
/// re-gated at execution on cast_skip_count() == 0.
struct IndexOnlyCandidate {
  std::string table;
  std::string column;
  Pattern pattern;
  AccessPath::IndexOnlyAgg agg = AccessPath::IndexOnlyAgg::kNone;
};

std::optional<IndexOnlyCandidate> DetectIndexOnlyAggregate(const Expr& body) {
  if (body.kind != ExprKind::kFunctionCall || body.children.size() != 1 ||
      body.children[0] == nullptr) {
    return std::nullopt;
  }
  AccessPath::IndexOnlyAgg agg;
  if (body.fn_name == "fn:count") {
    agg = AccessPath::IndexOnlyAgg::kCount;
  } else if (body.fn_name == "fn:sum") {
    agg = AccessPath::IndexOnlyAgg::kSum;
  } else if (body.fn_name == "fn:avg") {
    agg = AccessPath::IndexOnlyAgg::kAvg;
  } else if (body.fn_name == "fn:min") {
    agg = AccessPath::IndexOnlyAgg::kMin;
  } else if (body.fn_name == "fn:max") {
    agg = AccessPath::IndexOnlyAgg::kMax;
  } else {
    return std::nullopt;
  }
  const Expr& arg = *body.children[0];
  if (arg.kind != ExprKind::kPath || arg.absolute || arg.steps.empty() ||
      arg.steps[0].is_axis_step || !arg.steps[0].predicates.empty()) {
    return std::nullopt;
  }
  const Expr* src = arg.steps[0].expr.get();
  if (src == nullptr || src->kind != ExprKind::kXmlColumn) return std::nullopt;
  std::vector<NormStep> steps;
  bool pending_skip = false;
  for (size_t i = 1; i < arg.steps.size(); ++i) {
    const PathStep& step = arg.steps[i];
    if (!step.is_axis_step || !step.predicates.empty() ||
        !IsNameOnlyStep(step) ||
        !AppendNormStep(step, &pending_skip, &steps)) {
      return std::nullopt;
    }
  }
  if (pending_skip || steps.empty()) return std::nullopt;  // trailing '//'
  IndexOnlyCandidate c;
  c.table = src->table_name;
  c.column = src->column_name;
  c.pattern = MakePattern({std::move(steps)});
  c.agg = agg;
  return c;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> CollectXmlColumnSources(
    const Expr& e) {
  std::set<std::pair<std::string, std::string>> set;
  WalkExpr(e, [&](const Expr& x) {
    if (x.kind == ExprKind::kXmlColumn) {
      set.insert({x.table_name, x.column_name});
    }
  });
  return {set.begin(), set.end()};
}

void Planner::FoldStaticConjuncts(
    const SelectStmt& stmt, const FromSchema& schema,
    const std::vector<const SqlExpr*>& conjuncts, SelectPlan* plan) const {
  bool all_base_tables = true;
  for (const TableRef& ref : stmt.from) {
    if (ref.kind != TableRef::Kind::kBaseTable) all_base_tables = false;
  }
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const SqlExpr* conjunct = conjuncts[ci];
    if (conjunct->kind != SqlExprKind::kXmlExists ||
        conjunct->xquery == nullptr ||
        conjunct->xquery->parsed.body == nullptr) {
      continue;
    }
    // Bind every PASSING variable to its XML column; an argument that is
    // not an XML column, or does not resolve to exactly one, leaves the
    // variable's type unknown, which proves nothing.
    std::vector<ColumnBinding> bindings;
    for (const PassingArg& arg : conjunct->xquery->passing) {
      const ColumnSlot* slot =
          schema.PassedColumn(*arg.value, stmt.from.size());
      if (slot == nullptr || !slot->xml) continue;
      bindings.push_back(ColumnBinding{
          arg.var_name, stmt.from[slot->item].table_name, slot->name});
    }
    StaticQueryFacts facts = InferStaticTypes(
        *conjunct->xquery->parsed.body, catalog_, bindings);
    const StaticType& t = facts.body_type;
    // Folding an expression that can raise would trade the error for rows
    // (or rows for an error) — never fold those.
    if (t.can_raise) continue;
    StaticFold fold;
    fold.conjunct = conjunct;
    fold.first_conjunct = ci == 0;
    if (t.IsEmpty()) {
      // XMLEXISTS is true iff the body is non-empty: a statically empty
      // body makes the conjunct constant false.
      fold.value = false;
      fold.witnesses = std::move(facts.witnesses);
      fold.description = "XMLEXISTS body is statically empty-sequence()";
      if (!fold.witnesses.empty()) {
        const StaticEmptyWitness& w = fold.witnesses.front();
        fold.description += ": no stored path in " + w.table + "." +
                            w.column + " matches " + w.path_text;
      }
    } else if (t.NonEmpty()) {
      // A provably non-empty body (a boolean result is the Tip 3 trap:
      // one item either way) makes XMLEXISTS constant true. The proof is
      // usually pure type algebra, but summary-derived emptiness facts can
      // feed it (a condition over a dead path selecting the non-empty
      // branch), so any witnesses collected during inference ride along
      // and are re-verified at execution exactly like the false-fold ones.
      fold.value = true;
      fold.witnesses = std::move(facts.witnesses);
      fold.description = "XMLEXISTS body is statically non-empty (" +
                         t.CardinalityName() + ") — the predicate never "
                         "filters";
    } else {
      continue;
    }
    if (!fold.value && fold.first_conjunct && all_base_tables &&
        !plan->static_empty) {
      // AND evaluates left-to-right: a false FIRST conjunct means no later
      // conjunct (and no raising expression) ever runs, and base-table
      // scans cannot raise either, so the zero-row result is observably
      // identical to the unfolded execution.
      plan->static_empty = true;
      plan->static_reason = fold.description;
    }
    plan->folds.push_back(std::move(fold));
  }
}

Result<SelectPlan> Planner::PlanSelect(const SelectStmt& stmt) const {
  XQDB_ASSIGN_OR_RETURN(FromSchema schema, BuildFromSchema(stmt, *catalog_));
  SelectPlan plan;
  plan.access.resize(stmt.from.size());

  std::vector<const SqlExpr*> where_conjuncts;
  if (stmt.where != nullptr) SplitConjuncts(*stmt.where, &where_conjuncts);

  if (static_enabled_) {
    FoldStaticConjuncts(stmt, schema, where_conjuncts, &plan);
  }

  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    AccessPath& access = plan.access[i];
    const Table* table = schema.tables[i];
    if (table == nullptr) {
      access.summary = "XMLTABLE (lateral row producer)";
      continue;
    }

    // Gather filtering XQuery contexts touching this table's XML columns.
    ExtractionResult merged;
    std::vector<const XmlIndex*> candidate_indexes;
    std::string used_column;

    // The FROM position of the column the PASSING clause binds `var` to;
    // -1 when it binds none. `visible_items` is what the embedded query
    // sees of the FROM list.
    auto passing_item = [&](const EmbeddedXQuery& q, size_t visible_items,
                            const std::string& var) -> int {
      for (const PassingArg& arg : q.passing) {
        if (arg.var_name != var) continue;
        const ColumnSlot* slot = schema.PassedColumn(*arg.value, visible_items);
        return slot == nullptr ? -1 : static_cast<int>(slot->item);
      }
      return -1;
    };

    // The root variable of the outer side of a join candidate: follows
    // casts and path sources down to a variable reference.
    auto root_var = [](const Expr* expr) -> const std::string* {
      while (expr != nullptr && expr->kind != ExprKind::kVarRef) {
        if (expr->kind == ExprKind::kCastAs && !expr->children.empty()) {
          expr = expr->children[0].get();
        } else if (expr->kind == ExprKind::kPath && !expr->steps.empty() &&
                   !expr->steps[0].is_axis_step) {
          expr = expr->steps[0].expr.get();
        } else {
          return nullptr;
        }
      }
      return expr == nullptr ? nullptr : &expr->var;
    };

    auto analyze_embedded = [&](const EmbeddedXQuery& q, size_t visible_items,
                                bool filtering, const char* context_desc) {
      for (const PassingArg& arg : q.passing) {
        const ColumnSlot* slot = schema.PassedColumn(*arg.value, visible_items);
        if (slot == nullptr || !slot->xml || slot->item != i) continue;
        const std::string& col = slot->name;
        if (!filtering) {
          merged.notes.push_back(
              DiagTag(DiagCode::kXQL002_PredicateInSelect) +
              std::string(context_desc) +
              " does not eliminate rows — its predicates on " + ref.alias +
              "." + col + " are not index eligible");
          continue;
        }
        ExtractionResult r = ExtractPredicates(
            *q.parsed.body, ref.table_name, col, {arg.var_name});
        for (auto& p : r.predicates) {
          merged.predicates.push_back(std::move(p));
        }
        for (auto& jc : r.joins) {
          // A join probe needs the outer side to be computable before this
          // ref joins: its root variable must be passed from an *earlier*
          // FROM item.
          const std::string* var = root_var(jc.outer_expr);
          int outer_ref =
              var != nullptr ? passing_item(q, visible_items, *var) : -1;
          if (outer_ref < 0 || outer_ref >= static_cast<int>(i)) {
            merged.notes.push_back(
                DiagTag(DiagCode::kXQL006_JoinOrderUnavailable) +
                "join candidate " + jc.description +
                " skipped: the outer side is not available before this "
                "table in the join order");
            continue;
          }
          jc.source = &q;
          merged.joins.push_back(std::move(jc));
        }
        for (auto& n : r.notes) merged.notes.push_back(std::move(n));
        if (used_column.empty() &&
            (!merged.predicates.empty() || !merged.joins.empty())) {
          used_column = col;
        }
      }
    };

    for (const SqlExpr* conjunct : where_conjuncts) {
      if (conjunct->kind == SqlExprKind::kXmlExists) {
        analyze_embedded(*conjunct->xquery, stmt.from.size(),
                         /*filtering=*/true, "XMLEXISTS in WHERE");
      }
    }
    for (size_t j = 0; j < stmt.from.size(); ++j) {
      const TableRef& other = stmt.from[j];
      if (other.kind == TableRef::Kind::kXmlTable &&
          other.row_query != nullptr) {
        analyze_embedded(*other.row_query, j, /*filtering=*/true,
                         "XMLTABLE row producer");
        for (const XmlTableColumn& col : other.columns) {
          if (!col.for_ordinality && col.path_text.find('[') !=
                                         std::string::npos) {
            merged.notes.push_back(
                DiagTag(DiagCode::kXQL004_XmlTableColumnPred) +
                "XMLTABLE column '" + col.name + "' PATH '" + col.path_text +
                "': an empty column result becomes NULL, the row survives — "
                "column predicates are not index eligible (Tip 4, Query 12)");
          }
        }
      }
    }
    for (const SelectItem& item : stmt.items) {
      if (!item.star && item.expr != nullptr &&
          item.expr->kind == SqlExprKind::kXmlQuery) {
        analyze_embedded(*item.expr->xquery, stmt.from.size(),
                         /*filtering=*/false,
                         "XMLQUERY in the SELECT list (Tip 2, Query 5)");
      }
    }

    // Candidate indexes: all XML indexes on the column we found predicates
    // for (or any XML column if none).
    if (used_column.empty()) {
      for (const ColumnDef& col : table->columns()) {
        if (col.type == SqlType::kXml) {
          used_column = col.name;
          break;
        }
      }
    }
    if (!used_column.empty()) {
      candidate_indexes = table->indexes().XmlIndexesOn(used_column);
    }
    const PathSummary* summary =
        used_column.empty() ? nullptr : table->path_summary(used_column);
    access = ChooseAccessPath(candidate_indexes, merged, summary, used_column);
  }
  return plan;
}

Result<XQueryPlan> Planner::PlanXQuery(const Expr& body) const {
  XQueryPlan plan;

  // Static type/cardinality inference (DESIGN.md §13): a body proven
  // empty-sequence() — and proven unable to raise — executes as a
  // constant-empty result with docs_scanned = 0. The proof's emptiness
  // witnesses are re-verified against the live path summary at execution;
  // the normal access path below stays in the plan as the demotion target.
  if (static_enabled_) {
    StaticQueryFacts facts = InferStaticTypes(body, catalog_, {});
    if (facts.body_type.IsEmpty() && !facts.body_type.can_raise) {
      plan.static_empty = true;
      plan.static_witnesses = std::move(facts.witnesses);
      plan.static_reason = "body is statically empty-sequence()";
      if (!plan.static_witnesses.empty()) {
        const StaticEmptyWitness& w = plan.static_witnesses.front();
        plan.static_reason += ": no stored path in " + w.table + "." +
                              w.column + " matches " + w.path_text;
      }
    }
  }

  // Covering index-only aggregates: answer fn:count/sum/avg/min/max over a
  // predicate-free indexed path straight from B+Tree entries. Requires a
  // DOUBLE index whose pattern language *equals* the query path's — the
  // pre-filter direction alone would allow extra entries the query never
  // produces. The executor re-verifies the data-dependent half of the
  // claim (zero tolerant cast skips) and demotes to a collection scan.
  if (auto cand = DetectIndexOnlyAggregate(body)) {
    auto table_result = catalog_->GetTable(cand->table);
    if (table_result.ok()) {
      for (const XmlIndex* idx :
           table_result.value()->indexes().XmlIndexesOn(cand->column)) {
        if (idx->type() != IndexValueType::kDouble) continue;
        if (!IndexCoversExactly(*idx, cand->pattern)) continue;
        plan.use_index = true;
        plan.table = cand->table;
        plan.column = cand->column;
        plan.access.kind = AccessPath::Kind::kIndexOnly;
        plan.access.index = idx;
        plan.access.index_only_agg = cand->agg;
        plan.access.index_only_path_text = PatternToString(cand->pattern);
        plan.access.summary =
            "covering aggregate: pattern language equals the query path "
            "(both containment directions); valid while the index has no "
            "tolerant cast skips";
        return plan;
      }
    }
  }

  auto sources = CollectXmlColumnSources(body);
  for (const auto& [table_name, column] : sources) {
    auto table_result = catalog_->GetTable(table_name);
    if (!table_result.ok()) continue;  // Execution will surface the error.
    const Table* table = table_result.value();
    ExtractionResult extraction =
        ExtractPredicates(body, table_name, column, {});
    std::vector<const XmlIndex*> indexes =
        table->indexes().XmlIndexesOn(column);
    AccessPath access = ChooseAccessPath(indexes, extraction,
                                         table->path_summary(column), column);
    if (access.kind != AccessPath::Kind::kFullScan) {
      plan.use_index = true;
      plan.table = table_name;
      plan.column = column;
      plan.access = std::move(access);
      return plan;
    }
    // Keep the most informative no-index story.
    if (plan.access.summary.empty() || !access.notes.empty()) {
      plan.table = table_name;
      plan.column = column;
      plan.access = std::move(access);
    }
  }
  return plan;
}

}  // namespace xqdb
