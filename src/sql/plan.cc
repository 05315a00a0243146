#include "sql/plan.h"

namespace xqdb {

namespace {

std::string BoundToString(const ProbeBound& b, bool is_low) {
  if (!b.value.has_value()) return is_low ? "-inf" : "+inf";
  std::string s = b.value->Lexical();
  return b.inclusive ? ("[" + s) : ("(" + s);
}

std::string AccessPathToString(const AccessPath& path) {
  std::string out;
  switch (path.kind) {
    case AccessPath::Kind::kFullScan:
      out = "TABLE SCAN";
      break;
    case AccessPath::Kind::kIndexRange:
      out = "XML INDEX RANGE SCAN " + path.index->name() + " " +
            BoundToString(path.lo, true) + " .. " +
            BoundToString(path.hi, false);
      break;
    case AccessPath::Kind::kIndexIntersect:
      out = "XML INDEX ANDING " + path.index->name() + " " +
            BoundToString(path.lo, true) + " .. " +
            BoundToString(path.hi, false) + "  AND  " +
            path.index2->name() + " " + BoundToString(path.lo2, true) +
            " .. " + BoundToString(path.hi2, false);
      break;
    case AccessPath::Kind::kIndexJoinProbe:
      out = "XML INDEX NESTED-LOOP PROBE " + path.index->name() +
            " (equality key computed per outer row)";
      break;
    case AccessPath::Kind::kSummaryExistence:
      out = "PATH SUMMARY EXISTENCE PROBE " + path.summary_path_text +
            " (the strong DataGuide admits the documents that hold the "
            "path; the query evaluates each one)";
      break;
    case AccessPath::Kind::kIndexOnly: {
      const char* agg = "?";
      switch (path.index_only_agg) {
        case AccessPath::IndexOnlyAgg::kNone:
          break;
        case AccessPath::IndexOnlyAgg::kCount:
          agg = "count";
          break;
        case AccessPath::IndexOnlyAgg::kSum:
          agg = "sum";
          break;
        case AccessPath::IndexOnlyAgg::kAvg:
          agg = "avg";
          break;
        case AccessPath::IndexOnlyAgg::kMin:
          agg = "min";
          break;
        case AccessPath::IndexOnlyAgg::kMax:
          agg = "max";
          break;
      }
      out = "XML INDEX ONLY SCAN " + path.index->name() + " (fn:" +
            std::string(agg) + " over " + path.index_only_path_text +
            ", no document access)";
      break;
    }
  }
  if (!path.summary.empty()) out += "  -- " + path.summary;
  for (const std::string& note : path.notes) {
    out += "\n      note: " + note;
  }
  return out;
}

}  // namespace

std::string SelectPlan::Explain(const SelectStmt& stmt) const {
  std::string out;
  if (static_empty) {
    out += "  STATIC EMPTY — " + static_reason +
           " (re-verified against the live path summary at execution; a "
           "stale proof demotes to the plan below)\n";
  }
  for (const StaticFold& fold : folds) {
    out += "  static fold: " + fold.description + " -> always " +
           (fold.value ? "true" : "false") + "\n";
  }
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    out += "  from[" + std::to_string(i) + "] ";
    if (ref.kind == TableRef::Kind::kBaseTable) {
      out += ref.table_name;
      if (ref.alias != ref.table_name) out += " AS " + ref.alias;
    } else {
      out += "XMLTABLE('" + ref.row_query->text + "') AS " + ref.alias;
    }
    out += ": ";
    out += (i < access.size()) ? AccessPathToString(access[i])
                               : std::string("TABLE SCAN");
    out += "\n";
  }
  return out;
}

std::string XQueryPlan::Explain() const {
  std::string prefix;
  if (static_empty) {
    prefix = "  STATIC EMPTY — " + static_reason +
             " (re-verified against the live path summary at execution; a "
             "stale proof demotes to the plan below)\n";
  }
  if (!use_index) {
    std::string out = prefix + "  COLLECTION SCAN";
    if (!access.summary.empty()) out += "  -- " + access.summary;
    for (const std::string& note : access.notes) {
      out += "\n      note: " + note;
    }
    return out + "\n";
  }
  std::string out = prefix + "  " + table + "." + column + ": ";
  out += AccessPathToString(access);
  return out + "\n";
}

}  // namespace xqdb
