#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "workload/generator.h"

namespace xqdb {
namespace testing {

namespace {

/// A normalized execution outcome. Row order is deterministic on every
/// path (index probes return ascending row-ids, full scans ascend,
/// FilterRows preserves order, order-by is a stable sort), so the exact
/// joined text is a valid comparison key — no sorting, no set semantics.
struct Outcome {
  bool ok = false;
  std::string text;
  ExecStats stats;  // attached to divergence reports: which side probed
                    // what is usually the whole diagnosis
};

Outcome RunOne(Database* db, const GenQuery& q, const ExecOptions& opts) {
  Outcome out;
  if (q.is_sql) {
    auto rs = db->ExecuteSql(q.text, opts);
    if (!rs.ok()) {
      out.text = "ERROR: " + rs.status().ToString();
      return out;
    }
    out.ok = true;
    out.stats = rs->stats;
    for (const auto& row : rs->rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i) out.text += '|';
        out.text += row[i].ToDisplayString();
      }
      out.text += '\n';
    }
  } else {
    auto xr = db->ExecuteXQuery(q.text, opts);
    if (!xr.ok()) {
      out.text = "ERROR: " + xr.status().ToString();
      return out;
    }
    out.ok = true;
    out.stats = xr->stats;
    for (const auto& row : xr->rows) {
      out.text += row;
      out.text += '\n';
    }
  }
  return out;
}

/// `lax_errors`: under the parallel oracle two sides may surface a
/// *different* row's error first (FilterRows rethrows the first chunk
/// failure), so erroring on both sides counts as agreement there. The
/// other oracles require the identical error.
bool SameOutcome(const Outcome& a, const Outcome& b, bool lax_errors) {
  if (a.ok != b.ok) return false;
  if (!a.ok && lax_errors) return true;
  return a.text == b.text;
}

std::string Truncate(const std::string& s, size_t n = 500) {
  if (s.size() <= n) return s;
  return s.substr(0, n) + "...[" + std::to_string(s.size() - n) + " more]";
}

std::string DiffDetail(const char* lhs_name, const Outcome& lhs,
                       const char* rhs_name, const Outcome& rhs) {
  return std::string(lhs_name) + ":\n" + Truncate(lhs.text) + "\n--- vs " +
         rhs_name + ":\n" + Truncate(rhs.text) + "\n--- counters " +
         lhs_name + ": " + lhs.stats.ToJson() + "\n--- counters " + rhs_name +
         ": " + rhs.stats.ToJson();
}

/// Loads workload + DDL + extra docs into a fresh database. Setup failures
/// are reported as divergences (a scenario that no longer loads is itself
/// a finding, and the minimizer must not "fix" a bug by breaking setup).
bool SetupScenario(const DiffScenario& s, Database* db,
                   std::vector<Divergence>* divs) {
  Status st = LoadPaperWorkload(db, s.workload);
  if (!st.ok()) {
    divs->push_back({"setup", "initial", GenQuery{},
                     "workload load failed: " + st.ToString()});
    return false;
  }
  for (const std::string& stmt : s.ddl) {
    auto r = db->ExecuteSql(stmt);
    if (!r.ok()) {
      divs->push_back({"setup", "initial", GenQuery{false, stmt, ""},
                       "DDL failed: " + r.status().ToString()});
      return false;
    }
  }
  for (size_t i = 0; i < s.extra_docs.size(); ++i) {
    std::string ins = "INSERT INTO orders VALUES (" +
                      std::to_string(800000 + i) + ", '" + s.extra_docs[i] +
                      "')";
    auto r = db->ExecuteSql(ins);
    if (!r.ok()) {
      divs->push_back({"setup", "initial", GenQuery{true, ins, ""},
                       "doc insert failed: " + r.status().ToString()});
      return false;
    }
  }
  for (size_t i = 0; i < s.bad_docs.size(); ++i) {
    std::string ins = "INSERT INTO orders VALUES (" +
                      std::to_string(850000 + i) + ", '" + s.bad_docs[i] +
                      "')";
    auto r = db->ExecuteSql(ins);
    if (r.ok()) {
      divs->push_back({"baddoc-accepted", "initial", GenQuery{true, ins, ""},
                       "the XML parser accepted a document it must reject: " +
                           s.bad_docs[i]});
    }
  }
  return true;
}

constexpr char kCachedVsCold[] = "cached-vs-cold";
constexpr char kParallelVsSerial[] = "parallel-vs-serial";
constexpr char kDeleteProbeVsScan[] = "delete-probe-vs-scan";

/// The reference runs: each switches one execution strategy off (or forces
/// the scan plan) and must reproduce the cold run of the planner's plan.
struct ReferenceRun {
  const char* oracle;
  bool ExecOptions::* option;
  const char* label;      // this run, in divergence reports
  const char* ref_label;  // the cold run it is compared with
};

constexpr ReferenceRun kReferenceRuns[] = {
    // Every access path downgraded to a collection scan; the residual
    // WHERE makes it the ground truth any index plan must match.
    {"index-vs-scan", &ExecOptions::force_scan, "forced scan", "index plan"},
    // Same plan; axes by recursive tree walk instead of interval-based
    // structural joins.
    {"structural-vs-recursive", &ExecOptions::disable_structural,
     "recursive walk", "structural join"},
    // Same plan; row-at-a-time EvalPredicate instead of the vectorized
    // batch kernels, and covering aggregates demote to the evaluator.
    {"batch-vs-row", &ExecOptions::disable_batch, "row-at-a-time",
     "batch kernels"},
    // Same plan minus the static type/cardinality folds: every conjunct is
    // evaluated and no plan is marked STATIC EMPTY, so a wrong emptiness
    // proof (or a missed staleness demotion after phase DML) shows up here.
    {"static-vs-unoptimized", &ExecOptions::disable_static, "unoptimized",
     "static folding"},
};

void RunPhase(Database* db, const DiffScenario& s, const DiffOptions& opt,
              const char* phase, std::vector<Divergence>* divs) {
  ExecOptions cold_opts;
  cold_opts.disable_cache = true;
  ExecOptions scan_opts;
  scan_opts.force_scan = true;
  for (const GenQuery& q : s.queries) {
    ThreadPool::SetGlobalThreads(0);
    const Outcome idx_cold = RunOne(db, q, cold_opts);
    Outcome scan_ref;
    for (const ReferenceRun& ref : kReferenceRuns) {
      ExecOptions opts = cold_opts;
      opts.*ref.option = true;
      const Outcome run = RunOne(db, q, opts);
      if (!SameOutcome(run, idx_cold, false)) {
        divs->push_back({ref.oracle, phase, q,
                         DiffDetail(ref.label, run, ref.ref_label, idx_cold)});
      }
      if (ref.option == &ExecOptions::force_scan) scan_ref = run;
    }
    // First default-options run compiles into (or, post-DML, replays the
    // now-stale phase-A entry from) the cache; the second is a sure hit.
    const Outcome warm = RunOne(db, q, ExecOptions{});
    const Outcome hit = RunOne(db, q, ExecOptions{});

    if (!SameOutcome(warm, idx_cold, false)) {
      divs->push_back({kCachedVsCold, phase, q,
                       DiffDetail("cache replay", warm, "cold compile",
                                  idx_cold)});
    }
    if (!SameOutcome(hit, idx_cold, false)) {
      divs->push_back({kCachedVsCold, phase, q,
                       DiffDetail("cache hit", hit, "cold compile",
                                  idx_cold)});
    }
    if (!q.expect.empty() && std::string(phase) == "initial") {
      if (idx_cold.text != q.expect) {
        Outcome want;
        want.ok = true;
        want.text = q.expect;
        divs->push_back({"expectation", phase, q,
                         DiffDetail("got", idx_cold, "expected", want)});
      }
    }

    if (opt.threads > 0) {
      ThreadPool::SetGlobalThreads(static_cast<size_t>(opt.threads));
      const Outcome idx_par = RunOne(db, q, cold_opts);
      const Outcome scan_par = RunOne(db, q, scan_opts);
      const Outcome hit_par = RunOne(db, q, ExecOptions{});
      if (!SameOutcome(idx_par, idx_cold, true)) {
        divs->push_back({kParallelVsSerial, phase, q,
                         DiffDetail("parallel index", idx_par, "serial index",
                                    idx_cold)});
      }
      if (!SameOutcome(scan_par, scan_ref, true)) {
        divs->push_back({kParallelVsSerial, phase, q,
                         DiffDetail("parallel scan", scan_par, "serial scan",
                                    scan_ref)});
      }
      if (!SameOutcome(hit_par, hit, true)) {
        divs->push_back({kParallelVsSerial, phase, q,
                         DiffDetail("parallel cache hit", hit_par,
                                    "serial cache hit", hit)});
      }
    }
  }
}

std::string EscapeExpect(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string UnescapeExpect(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out += s[i] == 'n' ? '\n' : s[i];
    } else {
      out += s[i];
    }
  }
  return out;
}

/// Deletes one balanced [...] span from a query (the k-th one at top
/// nesting relative to its opener), respecting string literals in both
/// quote styles. Returns empty when there is no k-th span.
std::string DropBracketSpan(const std::string& text, int k) {
  int seen = 0;
  char quote = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (quote) {
      if (c == quote) quote = 0;
      continue;
    }
    if (c == '"' || c == '\'') {
      quote = c;
      continue;
    }
    if (c != '[') continue;
    if (seen++ != k) continue;
    int depth = 0;
    char q2 = 0;
    for (size_t j = i; j < text.size(); ++j) {
      char d = text[j];
      if (q2) {
        if (d == q2) q2 = 0;
        continue;
      }
      if (d == '"' || d == '\'') {
        q2 = d;
      } else if (d == '[') {
        ++depth;
      } else if (d == ']' && --depth == 0) {
        return text.substr(0, i) + text.substr(j + 1);
      }
    }
    return std::string();  // unbalanced — give up on this span
  }
  return std::string();
}

/// Rewrites the first "[A and B]" (or "or") into "[A]" / "[B]".
std::string SplitConjunction(const std::string& text, bool keep_left) {
  for (const char* sep : {" and ", " or "}) {
    size_t p = text.find(sep);
    while (p != std::string::npos) {
      // Only split inside a predicate: the nearest enclosing bracket pair.
      size_t open = text.rfind('[', p);
      size_t close = text.find(']', p);
      if (open != std::string::npos && close != std::string::npos) {
        return keep_left
                   ? text.substr(0, p) + text.substr(close)
                   : text.substr(0, open + 1) + text.substr(p + strlen(sep));
      }
      p = text.find(sep, p + 1);
    }
  }
  return std::string();
}

/// The DML oracle: `db` and `twin` were set up alike; `db` runs each
/// statement on its planned access path (a DELETE selects its victims
/// through the index and summary probes of its WHERE) and `twin` with
/// every access path forced to a scan. Each statement must end alike —
/// the same error, if any — and so must every table's surviving rows.
void RunDml(Database* db, Database* twin, const DiffScenario& s,
            std::vector<Divergence>* divs) {
  ExecOptions scan_opts;
  scan_opts.force_scan = true;
  for (const std::string& stmt : s.dml) {
    const GenQuery q{true, stmt, ""};
    const Outcome planned = RunOne(db, q, ExecOptions{});
    const Outcome scanned = RunOne(twin, q, scan_opts);
    if (!SameOutcome(planned, scanned, false)) {
      divs->push_back({kDeleteProbeVsScan, "dml", q,
                       DiffDetail("planned DML", planned, "scan DML",
                                  scanned)});
    }
  }
  for (const Table* table : db->catalog().AllTables()) {
    const GenQuery q{true, "SELECT * FROM " + table->name(), ""};
    const Outcome planned = RunOne(db, q, scan_opts);
    const Outcome scanned = RunOne(twin, q, scan_opts);
    if (!SameOutcome(planned, scanned, false)) {
      divs->push_back({kDeleteProbeVsScan, "dml", q,
                       DiffDetail("rows left by planned DML", planned,
                                  "rows left by scan DML", scanned)});
    }
  }
}

}  // namespace

std::vector<std::string> OracleNames() {
  std::vector<std::string> names;
  for (const ReferenceRun& ref : kReferenceRuns) names.push_back(ref.oracle);
  for (const char* name : {kCachedVsCold, kParallelVsSerial,
                           kDeleteProbeVsScan}) {
    names.push_back(name);
  }
  return names;
}

std::vector<Divergence> RunScenario(const DiffScenario& scenario,
                                    const DiffOptions& options) {
  std::vector<Divergence> divs;
  {
    Database db;
    if (SetupScenario(scenario, &db, &divs)) {
      RunPhase(&db, scenario, options, "initial", &divs);
      if (!scenario.dml.empty()) {
        ThreadPool::SetGlobalThreads(0);
        Database twin;
        if (SetupScenario(scenario, &twin, &divs)) {
          RunDml(&db, &twin, scenario, &divs);
        }
        RunPhase(&db, scenario, options, "post-dml", &divs);
      }
    }
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  return divs;
}

std::string CanonicalOutcome(const DiffScenario& scenario, const GenQuery& q) {
  Database db;
  std::vector<Divergence> sink;
  if (!SetupScenario(scenario, &db, &sink)) return "ERROR: setup failed";
  ThreadPool::SetGlobalThreads(0);
  ExecOptions cold;
  cold.disable_cache = true;
  Outcome out = RunOne(&db, q, cold);
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  return out.text;
}

namespace {

bool StillDiverges(const DiffScenario& s, const DiffOptions& opt,
                   const std::string& oracle, int* evals_left) {
  if (*evals_left <= 0) return false;
  --*evals_left;
  for (const Divergence& d : RunScenario(s, opt)) {
    if (d.oracle == oracle) return true;
  }
  return false;
}

}  // namespace

DiffScenario MinimizeScenario(const DiffScenario& scenario,
                              const DiffOptions& options,
                              const std::string& oracle, int max_evals) {
  DiffScenario best = scenario;
  int evals = max_evals;
  auto accept = [&](const DiffScenario& cand) {
    if (!StillDiverges(cand, options, oracle, &evals)) return false;
    best = cand;
    return true;
  };

  // Queries first: almost always a single query is implicated, and every
  // later probe gets cheaper once the rest are gone.
  for (size_t i = best.queries.size(); i-- > 0 && best.queries.size() > 1;) {
    DiffScenario cand = best;
    cand.queries.erase(cand.queries.begin() + i);
    accept(cand);
  }
  auto drop_each = [&](std::vector<std::string> DiffScenario::* field) {
    for (size_t i = (best.*field).size(); i-- > 0;) {
      DiffScenario cand = best;
      (cand.*field).erase((cand.*field).begin() + i);
      accept(cand);
    }
  };
  drop_each(&DiffScenario::dml);
  drop_each(&DiffScenario::extra_docs);
  drop_each(&DiffScenario::ddl);

  // Workload shrinks: binary-search-ish halving of the document count,
  // then the side knobs.
  while (best.workload.num_orders > 4) {
    DiffScenario cand = best;
    cand.workload.num_orders = std::max(4, cand.workload.num_orders / 2);
    if (!accept(cand)) break;
  }
  for (auto knob : {&OrdersWorkloadConfig::multi_price_fraction,
                    &OrdersWorkloadConfig::string_price_fraction,
                    &OrdersWorkloadConfig::canadian_postal_fraction}) {
    if (best.workload.*knob != 0.0) {
      DiffScenario cand = best;
      cand.workload.*knob = 0.0;
      accept(cand);
    }
  }
  {
    DiffScenario cand = best;
    cand.workload.lineitems_max = 1;
    accept(cand);
  }

  // Textual shrinks on the surviving queries: peel predicates, split
  // conjunctions. Loop until a full pass changes nothing.
  bool changed = true;
  while (changed && evals > 0) {
    changed = false;
    for (size_t qi = 0; qi < best.queries.size(); ++qi) {
      for (int span = 0; span < 8; ++span) {
        std::string t = DropBracketSpan(best.queries[qi].text, span);
        if (t.empty()) break;
        DiffScenario cand = best;
        cand.queries[qi].text = t;
        if (accept(cand)) {
          changed = true;
          break;
        }
      }
      for (bool keep_left : {true, false}) {
        std::string t = SplitConjunction(best.queries[qi].text, keep_left);
        if (t.empty()) continue;
        DiffScenario cand = best;
        cand.queries[qi].text = t;
        if (accept(cand)) changed = true;
      }
    }
  }
  return best;
}

std::string SerializeScenario(const DiffScenario& s,
                              const std::string& comment) {
  std::ostringstream out;
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << "\n";
  }
  const OrdersWorkloadConfig& w = s.workload;
  out << "seed: " << w.seed << "\n";
  out << "orders: " << w.num_orders << "\n";
  out << "customers: " << w.num_customers << "\n";
  out << "products: " << w.num_products << "\n";
  out << "lineitems_max: " << w.lineitems_max << "\n";
  out << "multi_price: " << w.multi_price_fraction << "\n";
  out << "string_price: " << w.string_price_fraction << "\n";
  out << "canadian: " << w.canadian_postal_fraction << "\n";
  out << "namespaces: " << (w.use_namespaces ? 1 : 0) << "\n";
  for (const auto& d : s.ddl) out << "ddl: " << d << "\n";
  for (const auto& d : s.extra_docs) out << "doc: " << d << "\n";
  for (const auto& d : s.bad_docs) out << "baddoc: " << d << "\n";
  for (const auto& q : s.queries) {
    out << (q.is_sql ? "sql: " : "xquery: ") << q.text << "\n";
    if (!q.expect.empty()) out << "expect: " << EscapeExpect(q.expect) << "\n";
  }
  for (const auto& d : s.dml) out << "dml: " << d << "\n";
  return out.str();
}

Result<DiffScenario> ParseScenarioText(const std::string& text) {
  DiffScenario s;
  s.workload.num_orders = 32;
  s.workload.num_customers = 8;
  s.workload.num_products = 20;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  // Checked numeric parses: a corpus file is untrusted input (hand-edited,
  // minimizer-produced, or fetched), and the bare std::stoi/stod here used
  // to throw uncaught std::invalid_argument straight through xqdiff. Each
  // malformed header value now names its line and dies as a ParseError.
  auto parse_int = [&lineno](const std::string& key, const std::string& val,
                             int* out) -> Status {
    auto v = ParseXsInteger(val);
    if (!v || *v < 0 || *v > std::numeric_limits<int>::max()) {
      return Status::ParseError("corpus line " + std::to_string(lineno) +
                                ": malformed " + key + " value '" + val +
                                "' (expected a non-negative integer)");
    }
    *out = static_cast<int>(*v);
    return Status::OK();
  };
  auto parse_fraction = [&lineno](const std::string& key,
                                  const std::string& val,
                                  double* out) -> Status {
    auto v = ParseXsDouble(val);
    if (!v || std::isnan(*v) || *v < 0.0 || *v > 1.0) {
      return Status::ParseError("corpus line " + std::to_string(lineno) +
                                ": malformed " + key + " value '" + val +
                                "' (expected a fraction in [0, 1])");
    }
    *out = *v;
    return Status::OK();
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("corpus line " + std::to_string(lineno) +
                                ": expected 'key: value', got '" + line + "'");
    }
    std::string key = line.substr(0, colon);
    std::string val = line.substr(colon + 1);
    if (!val.empty() && val[0] == ' ') val.erase(0, 1);
    if (key == "seed") {
      auto v = ParseXsInteger(val);
      if (!v || *v < 0 || *v > std::numeric_limits<unsigned>::max()) {
        return Status::ParseError("corpus line " + std::to_string(lineno) +
                                  ": malformed seed value '" + val + "'");
      }
      s.workload.seed = static_cast<unsigned>(*v);
    } else if (key == "orders") {
      if (Status st = parse_int(key, val, &s.workload.num_orders); !st.ok()) {
        return st;
      }
    } else if (key == "customers") {
      if (Status st = parse_int(key, val, &s.workload.num_customers);
          !st.ok()) {
        return st;
      }
    } else if (key == "products") {
      if (Status st = parse_int(key, val, &s.workload.num_products);
          !st.ok()) {
        return st;
      }
    } else if (key == "lineitems_max") {
      if (Status st = parse_int(key, val, &s.workload.lineitems_max);
          !st.ok()) {
        return st;
      }
    } else if (key == "multi_price") {
      if (Status st =
              parse_fraction(key, val, &s.workload.multi_price_fraction);
          !st.ok()) {
        return st;
      }
    } else if (key == "string_price") {
      if (Status st =
              parse_fraction(key, val, &s.workload.string_price_fraction);
          !st.ok()) {
        return st;
      }
    } else if (key == "canadian") {
      if (Status st =
              parse_fraction(key, val, &s.workload.canadian_postal_fraction);
          !st.ok()) {
        return st;
      }
    } else if (key == "namespaces") {
      s.workload.use_namespaces = val != "0";
    } else if (key == "ddl") {
      s.ddl.push_back(val);
    } else if (key == "doc") {
      s.extra_docs.push_back(val);
    } else if (key == "baddoc") {
      s.bad_docs.push_back(val);
    } else if (key == "sql") {
      s.queries.push_back(GenQuery{true, val, ""});
    } else if (key == "xquery") {
      s.queries.push_back(GenQuery{false, val, ""});
    } else if (key == "expect") {
      if (s.queries.empty()) {
        return Status::ParseError("corpus line " + std::to_string(lineno) +
                                  ": 'expect' with no preceding query");
      }
      s.queries.back().expect = UnescapeExpect(val);
    } else if (key == "dml") {
      s.dml.push_back(val);
    } else {
      return Status::ParseError("corpus line " + std::to_string(lineno) +
                                ": unknown key '" + key + "'");
    }
  }
  return s;
}

Result<DiffScenario> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open corpus file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<DiffScenario> parsed = ParseScenarioText(buf.str());
  if (!parsed.ok()) {
    // Prefix the file path so a sweep over a corpus directory names the
    // offending file, not just a line number.
    return Status::ParseError(path + ": " + parsed.status().message());
  }
  return parsed;
}

Status SaveScenarioFile(const DiffScenario& scenario, const std::string& path,
                        const std::string& comment) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write: " + path);
  out << SerializeScenario(scenario, comment);
  return Status::OK();
}

}  // namespace testing
}  // namespace xqdb
