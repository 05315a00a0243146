// perfbench: the load driver of the repository benchmark (BENCHMARK.json).
//
// One process builds the generated paper collection several times (setup_s
// is the median build; each build is freed before the next and the last
// one is served), starts the server module's Server on loopback, and drives
// one closed-loop workload through Client::Call, so every request pays
// frame in -> parse -> plan -> probe/scan -> evaluate -> serialize -> frame
// out. Every answer is checked. The raw measurements (setup builds, every
// client-side latency sample, CPU, cache counters, failures) are written as
// one JSON object; perfbench/run.py turns them into the reported metrics.
//
//   perfbench --workload paper_scan|paper_join|point_rw --seed N
//             --seconds S --out RAW.json [--trace-out SPANS.jsonl]
//             [--wrong-answer]
//
// --trace-out turns on the engine's per-statement trace records
// (XQDB_TRACE, captured in memory through SetTraceSinkForTesting), joins
// them to the client-side request spans by session id and order, and
// writes every span as one JSON line when the run ends.
// --wrong-answer corrupts one expected answer; the answer checker must then
// report a failure (run.py --selftest).
//
// Exit status: 0 when the raw report was written (answer failures are
// reported in it), 2 on bad arguments, 3 when the build is unfit to
// measure (sanitizer or lock-order detector compiled in), 1 on any other
// error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/lock_order.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "observability/trace.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/table.h"
#include "workload/generator.h"
#include "workload/paper_queries.h"
#include "xml/parser.h"

extern char** environ;

namespace xqdb {
namespace {

// Pool size for every workload. Two session threads plus two pool workers
// fill a 4-core host without oversubscribing it (the calling session
// thread also runs chunks).
constexpr size_t kPoolThreads = 2;

// setup_s is the median of several identical builds: at least kMinBuilds,
// and more until kSetupBudgetNs has passed. On a shared 4-core host one
// build's time flips between speed levels about 35% apart in phases of
// 1-3 s, so the builds must span several such phases.
constexpr int kMinBuilds = 5;
constexpr int kMaxBuilds = 400;
constexpr long long kSetupBudgetNs = 5000000000LL;

// point_rw's post-phase answer check: this many custid and price keys.
constexpr int kSampleKeys = 20;

constexpr char kLiPrice[] =
    "CREATE INDEX li_price ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE";
constexpr char kOCust[] =
    "CREATE INDEX o_cust ON orders(orddoc) "
    "USING XMLPATTERN '/order/custid' AS SQL DOUBLE";

struct WorkloadSpec {
  std::string name;
  int orders = 0;
  int connections = 0;
  std::vector<std::string> indexes;
  // The paper queries a read-only workload cycles; empty for point_rw.
  std::vector<PaperQuery> queries;
  // The timed phase is split into `rounds` slices. After each slice of a
  // read-only workload, connection 0 alone runs `probe_pairs` INSERT+DELETE
  // pairs, so write latency is sampled across the whole run without any
  // write overlapping a read.
  int rounds = 1;
  int probe_pairs = 0;
};

/// The servable paper queries with (joins) or without a join.
std::vector<PaperQuery> PaperQueries(bool joins) {
  std::vector<PaperQuery> out;
  for (const PaperQuery& q : ServablePaperQueries()) {
    const std::string_view n = q.name;
    if ((n == "Q4" || n == "Q13" || n == "Q15" || n == "Q16") == joins) {
      out.push_back(q);
    }
  }
  return out;
}

std::optional<WorkloadSpec> LookupWorkload(const std::string& name) {
  if (name == "paper_scan") {
    return WorkloadSpec{name, 4000, 2, {kLiPrice}, PaperQueries(false), 10, 100};
  }
  if (name == "paper_join") {
    return WorkloadSpec{name, 500, 1, {kLiPrice}, PaperQueries(true), 10, 100};
  }
  if (name == "point_rw") {
    return WorkloadSpec{name, 4000, 2, {kLiPrice, kOCust}, {}, 1, 0};
  }
  return std::nullopt;
}

long long NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU time.
long long CpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return tv.tv_sec * 1000000000LL + tv.tv_usec * 1000LL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

void AppendNumbers(std::string* out, const std::vector<long long>& v) {
  *out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out += ',';
    *out += std::to_string(v[i]);
  }
  *out += ']';
}

// ---------------------------------------------------------------------------
// Setup: generate, parse and load the collection, then build its indexes.

struct BuildTimes {
  long long start_ns = 0;
  long long load_start_ns = 0;  // generation ends, storage.load begins
  long long load_end_ns = 0;
  long long end_ns = 0;
  long long parse_ns = 0;       // sum of ParseXml calls
  long long insert_ns = 0;      // sum of Table::InsertRow calls
  long long docs = 0;
  std::vector<std::pair<long long, long long>> index_spans;
};

Status LoadDocs(Database* db, const char* table_name,
                const std::vector<std::string>& texts, BuildTimes* t) {
  XQDB_ASSIGN_OR_RETURN(Table * table, db->catalog().GetTable(table_name));
  for (size_t i = 0; i < texts.size(); ++i) {
    const long long t0 = NowNs();
    XQDB_ASSIGN_OR_RETURN(std::unique_ptr<Document> doc, ParseXml(texts[i]));
    const long long t1 = NowNs();
    std::vector<SqlValue> values;
    values.push_back(SqlValue::Integer(static_cast<long long>(i)));
    values.push_back(SqlValue::Null());
    std::vector<std::unique_ptr<Document>> docs;
    docs.push_back(std::move(doc));
    XQDB_RETURN_IF_ERROR(
        table->InsertRow(std::move(values), std::move(docs)).status());
    t->parse_ns += t1 - t0;
    t->insert_ns += NowNs() - t1;
    ++t->docs;
  }
  return Status::OK();
}

Status BuildCollection(const WorkloadSpec& w, const OrdersWorkloadConfig& cfg,
                       Database* db, BuildTimes* t) {
  t->start_ns = NowNs();
  std::vector<std::string> customers;
  std::vector<std::string> orders;
  for (int i = 0; i < cfg.num_customers; ++i) {
    customers.push_back(GenerateCustomerXml(cfg, i));
  }
  for (int i = 0; i < cfg.num_orders; ++i) {
    orders.push_back(GenerateOrderXml(cfg, i));
  }
  t->load_start_ns = NowNs();
  XQDB_RETURN_IF_ERROR(SetupPaperSchema(db));
  XQDB_RETURN_IF_ERROR(LoadDocs(db, "CUSTOMER", customers, t));
  XQDB_RETURN_IF_ERROR(LoadDocs(db, "ORDERS", orders, t));
  const long long p0 = NowNs();
  XQDB_RETURN_IF_ERROR(LoadProducts(db, cfg));
  t->load_end_ns = NowNs();
  t->insert_ns += t->load_end_ns - p0;
  for (const std::string& ddl : w.indexes) {
    const long long i0 = NowNs();
    XQDB_RETURN_IF_ERROR(db->ExecuteSql(ddl).status());
    t->index_spans.emplace_back(i0, NowNs());
  }
  t->end_ns = NowNs();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Trace capture: the engine's per-statement records, kept in memory by
// session. Only what the span join needs is kept: the stats object.

class TraceRecords {
 public:
  void Add(const std::string& line) {
    // QueryTrace::ToJson: {..., "session": N, "ok": .., "stats": {...}}.
    // Query and plan texts are JSON-escaped, so neither key can occur
    // inside them. Records without a session come from setup statements.
    const size_t s = line.find("\"session\": ");
    const size_t st = line.rfind("\"stats\": ");
    if (s == std::string::npos || st == std::string::npos) return;
    const uint64_t session = std::strtoull(line.c_str() + s + 11, nullptr, 10);
    std::string stats = line.substr(st + 9, line.size() - st - 10);
    std::lock_guard<std::mutex> lock(mu_);
    by_session_[session].push_back(std::move(stats));
    last_session_ = session;
  }

  uint64_t last_session() {
    std::lock_guard<std::mutex> lock(mu_);
    return last_session_;
  }

  std::vector<std::string> Take(uint64_t session) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(by_session_[session]);
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::vector<std::string>> by_session_;
  uint64_t last_session_ = 0;
};

/// One integer field of an ExecStats::ToJson object.
long long StatField(const std::string& stats, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t at = stats.find(needle);
  return at == std::string::npos
             ? 0
             : std::strtoll(stats.c_str() + at + needle.size(), nullptr, 10);
}

// ---------------------------------------------------------------------------
// Client connections.

/// Result rows of a response payload. XQUERY: one line per item. QUERY
/// (ResultSet::ToString): a header line, one line per row, and a
/// "... (N rows total)" trailer when the listing was cut.
long long ResultRows(Verb verb, const std::string& payload) {
  const long long lines = std::count(payload.begin(), payload.end(), '\n');
  if (verb != Verb::kQuery) return lines;
  if (payload.size() >= 2) {
    const size_t last = payload.rfind('\n', payload.size() - 2);
    const size_t start = last == std::string::npos ? 0 : last + 1;
    if (payload.compare(start, 5, "... (") == 0) {
      return std::strtoll(payload.c_str() + start + 5, nullptr, 10);
    }
  }
  return std::max(0LL, lines - 1);
}

/// The result lines of a response; QUERY's header line is dropped.
std::vector<std::string> ResultLines(Verb verb, const std::string& payload) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    lines.emplace_back(payload, pos, nl - pos);
    pos = nl + 1;
  }
  if (verb == Verb::kQuery && !lines.empty()) lines.erase(lines.begin());
  return lines;
}

/// A read-only request's expected answer: row count and payload hash.
struct Answer {
  long long lines = -1;  // -1: no answer (the reference request failed)
  size_t hash = 0;
  bool operator==(const Answer&) const = default;
};

Answer Digest(const std::string& payload) {
  return {std::count(payload.begin(), payload.end(), '\n'),
          std::hash<std::string_view>{}(payload)};
}

struct RequestSpan {
  const char* phase;  // hello | reference | timed | probe | check
  const char* op;     // hello | read | insert | delete
  std::string name;   // paper query name, or the point_rw request kind
  Verb verb;
  long long start_ns;
  long long end_ns;
  long long bytes;    // payload bytes returned by Client::Call
  long long rows;
  bool ok;
};

struct Conn {
  int index = 0;
  Client client;
  bool tracing = false;
  bool dead = false;  // transport failed; the connection sends no more
  uint64_t session = 0;
  std::vector<RequestSpan> spans;

  long long attempted = 0;
  long long failed = 0;
  long long completed = 0;  // OK responses inside the timed slices
  std::vector<std::string> errors;

  std::vector<long long> read_ns;
  std::vector<long long> insert_ns;
  std::vector<long long> delete_ns;
  long long inserts_acked = 0;
  long long deletes_acked = 0;

  std::mt19937_64 rng;
  int next_order_id = 0;          // ids of orders this connection inserts
  std::deque<int> own_orders;     // inserted, not yet deleted (FIFO)
  size_t cursor = 0;              // position in the paper query cycle

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }

  /// Sends one request. Returns the OK frame, or nullopt after counting a
  /// failure (transport error or ERR frame, "ERR Busy" included).
  std::optional<ResponseFrame> Request(const char* phase, const char* op,
                                       const std::string& name, Verb verb,
                                       const std::string& text,
                                       long long* latency_ns) {
    ++attempted;
    const long long t0 = NowNs();
    Result<ResponseFrame> r = client.Call(verb, text);
    const long long t1 = NowNs();
    *latency_ns = t1 - t0;
    const bool ok = r.ok() && r->ok;
    if (tracing) {
      spans.push_back({phase, op, name, verb, t0, t1,
                       r.ok() ? static_cast<long long>(r->payload.size()) : 0,
                       ok ? ResultRows(verb, r->payload) : 0, ok});
    }
    if (!r.ok()) {
      dead = true;
      Fail(name + ": transport: " + r.status().ToString());
      return std::nullopt;
    }
    if (!r->ok) {
      Fail(name + ": ERR " + r->code + " " + r->payload.substr(0, 160));
      return std::nullopt;
    }
    return std::move(*r);
  }
};

std::string CustidLookup(int custid) {
  return "SELECT ordid FROM orders WHERE XMLEXISTS('$o/order[custid = " +
         std::to_string(custid) + "]' passing orddoc as \"o\")";
}

std::string PriceLookup(int price) {
  return "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > " +
         std::to_string(price) + " and @price < " +
         std::to_string(price + 1) + "]";
}

bool InsertOrder(Conn* c, const OrdersWorkloadConfig& cfg,
                 const char* phase) {
  const int id = c->next_order_id++;
  const std::string sql = "INSERT INTO orders VALUES (" + std::to_string(id) +
                          ", '" + GenerateOrderXml(cfg, id) + "')";
  long long ns = 0;
  if (!c->Request(phase, "insert", "insert", Verb::kQuery, sql, &ns)) {
    return false;
  }
  c->insert_ns.push_back(ns);
  ++c->inserts_acked;
  c->own_orders.push_back(id);
  return true;
}

bool DeleteOwnOrder(Conn* c, const char* phase) {
  const int id = c->own_orders.front();
  c->own_orders.pop_front();
  long long ns = 0;
  if (!c->Request(phase, "delete", "delete", Verb::kQuery,
                  "DELETE FROM orders WHERE ordid = " + std::to_string(id),
                  &ns)) {
    return false;
  }
  c->delete_ns.push_back(ns);
  ++c->deletes_acked;
  return true;
}

/// paper_scan / paper_join: cycle the workload's paper queries, checking
/// each answer against the reference pass.
void RunPaperSlice(Conn* c, const std::vector<PaperQuery>& queries,
                   const std::vector<Answer>& expected, long long deadline) {
  while (!c->dead && NowNs() < deadline) {
    const size_t i = c->cursor++ % queries.size();
    const PaperQuery& q = queries[i];
    long long ns = 0;
    auto frame = c->Request("timed", "read", q.name,
                            q.is_sql ? Verb::kQuery : Verb::kXQuery, q.text,
                            &ns);
    if (!frame) continue;
    ++c->completed;
    c->read_ns.push_back(ns);
    if (Digest(frame->payload) != expected[i]) {
      c->Fail(std::string(q.name) + ": answer differs from the reference");
    }
  }
}

/// point_rw: 40% custid lookups, 40% price-range lookups, 10% INSERT of a
/// fresh order, 10% DELETE of an order this connection inserted (an INSERT
/// while it has none left).
void RunPointSlice(Conn* c, const OrdersWorkloadConfig& cfg,
                   long long deadline) {
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> custid(0, cfg.num_customers - 1);
  std::uniform_int_distribution<int> price(1, 999);
  while (!c->dead && NowNs() < deadline) {
    const int roll = percent(c->rng);
    long long ns = 0;
    bool ok = false;
    if (roll < 40) {
      ok = c->Request("timed", "read", "custid", Verb::kQuery,
                      CustidLookup(custid(c->rng)), &ns)
               .has_value();
      if (ok) c->read_ns.push_back(ns);
    } else if (roll < 80) {
      ok = c->Request("timed", "read", "price", Verb::kXQuery,
                      PriceLookup(price(c->rng)), &ns)
               .has_value();
      if (ok) c->read_ns.push_back(ns);
    } else if (roll < 90 || c->own_orders.empty()) {
      ok = InsertOrder(c, cfg, "timed");
    } else {
      ok = DeleteOwnOrder(c, "timed");
    }
    if (ok) ++c->completed;
  }
}

/// point_rw's answer check: a seeded sample of lookups, each run over the
/// wire (index plan) and in-process with ExecOptions::force_scan; the two
/// must return the same rows.
void CheckPointLookups(Conn* c, Database* db,
                       const OrdersWorkloadConfig& cfg) {
  std::mt19937_64 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<int> custid(0, cfg.num_customers - 1);
  std::uniform_int_distribution<int> price(1, 999);
  ExecOptions scan;
  scan.force_scan = true;
  for (int k = 0; k < 2 * kSampleKeys; ++k) {
    const bool sql = k < kSampleKeys;
    const Verb verb = sql ? Verb::kQuery : Verb::kXQuery;
    const std::string text =
        sql ? CustidLookup(custid(rng)) : PriceLookup(price(rng));
    long long ns = 0;
    auto frame = c->Request("check", "read", sql ? "custid" : "price", verb,
                            text, &ns);
    if (!frame) continue;
    std::vector<std::string> want;
    if (sql) {
      auto rs = db->ExecuteSql(text, scan);
      if (!rs.ok()) {
        c->Fail("force_scan: " + rs.status().ToString());
        continue;
      }
      for (const auto& row : rs->rows) {
        std::string line;
        for (size_t i = 0; i < row.size(); ++i) {
          if (i > 0) line += " | ";
          line += row[i].ToDisplayString();
        }
        want.push_back(std::move(line));
      }
    } else {
      auto out = db->ExecuteXQuery(text, scan);
      if (!out.ok()) {
        c->Fail("force_scan: " + out.status().ToString());
        continue;
      }
      want = out->rows;
    }
    std::vector<std::string> got = ResultLines(verb, frame->payload);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) c->Fail(text + ": index and force_scan answers differ");
  }
}

// ---------------------------------------------------------------------------
// Trace output.

Status WriteSpans(const std::string& path, const WorkloadSpec& w,
                  const std::vector<BuildTimes>& builds,
                  const std::vector<std::unique_ptr<Conn>>& conns,
                  TraceRecords* records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  long long next_id = 1;
  auto span = [&](const char* name, long long parent, const std::string& rest) {
    const long long id = next_id++;
    std::fprintf(f, "{\"span\": \"%s\", \"id\": %lld, \"parent\": %lld, %s}\n",
                 name, id, parent, rest.c_str());
    return id;
  };
  auto interval = [](long long a, long long b) {
    return "\"start_ns\": " + std::to_string(a) +
           ", \"end_ns\": " + std::to_string(b);
  };
  auto aggregate = [](long long dur, long long count) {
    return "\"dur_ns\": " + std::to_string(dur) +
           ", \"count\": " + std::to_string(count);
  };
  for (size_t b = 0; b < builds.size(); ++b) {
    const BuildTimes& t = builds[b];
    const long long setup =
        span("setup", 0, "\"build\": " + std::to_string(b) + ", " +
                             interval(t.start_ns, t.end_ns));
    span("workload.generate", setup, interval(t.start_ns, t.load_start_ns));
    const long long load =
        span("storage.load", setup, interval(t.load_start_ns, t.load_end_ns));
    span("xml.parse", load, aggregate(t.parse_ns, t.docs));
    span("storage.insert_row", load, aggregate(t.insert_ns, t.docs));
    for (size_t i = 0; i < t.index_spans.size(); ++i) {
      span("index.build", setup,
           "\"ddl\": " + std::to_string(i) + ", " +
               interval(t.index_spans[i].first, t.index_spans[i].second));
    }
  }
  for (const auto& c : conns) {
    // Each QUERY/XQUERY frame yields exactly one record in its session,
    // emitted before the response is written: the i-th record of the
    // session belongs to the connection's i-th request.
    const std::vector<std::string> stats = records->Take(c->session);
    if (stats.size() != c->spans.size()) {
      std::fclose(f);
      return Status::Internal(
          "connection " + std::to_string(c->index) + " sent " +
          std::to_string(c->spans.size()) + " requests but its session has " +
          std::to_string(stats.size()) + " trace records");
    }
    for (size_t i = 0; i < stats.size(); ++i) {
      const RequestSpan& s = c->spans[i];
      std::string tags = "\"workload\": \"" + w.name + "\", \"conn\": " +
                         std::to_string(c->index) + ", \"session\": " +
                         std::to_string(c->session) + ", \"phase\": \"" +
                         s.phase + "\", \"op\": \"" + s.op +
                         "\", \"query\": ";
      AppendJsonString(&tags, s.name);
      tags += std::string(", \"lang\": \"") +
              (s.verb == Verb::kQuery ? "sql" : "xquery") +
              "\", \"bytes\": " + std::to_string(s.bytes) +
              ", \"rows\": " + std::to_string(s.rows) +
              ", \"ok\": " + (s.ok ? "true" : "false") + ", " +
              interval(s.start_ns, s.end_ns);
      const long long request = span("request", 0, tags);
      const long long exec = span(
          "core.execute", request,
          "\"dur_ns\": " + std::to_string(StatField(stats[i], "total_ns")) +
              ", \"stats\": " + stats[i]);
      for (const char* phase : {"parse", "plan", "exec"}) {
        const std::string key = std::string(phase) + "_ns";
        span((std::string("core.") + phase).c_str(), exec,
             "\"dur_ns\": " + std::to_string(StatField(stats[i], key.c_str())));
      }
    }
  }
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  unsigned seed = 0;
  int seconds = 0;
  std::string out;
  std::string trace_out;
  bool wrong_answer = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a->seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      a->out = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      a->trace_out = argv[++i];
    } else if (arg == "--wrong-answer") {
      a->wrong_answer = true;
    } else {
      return false;
    }
  }
  return have_seed && a->seconds > 0 && !a->out.empty() &&
         LookupWorkload(a->workload).has_value();
}

/// A run may only report from an optimized build without instrumentation.
bool FitToMeasure() {
  bool sanitized = PERFBENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  if (sanitized) {
    std::fprintf(stderr, "perfbench: refusing to report from a sanitizer build\n");
    return false;
  }
  if (LockOrderSnapshotJson().find("\"enabled\": true") != std::string::npos) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a build with the "
                 "lock-order detector compiled in\n");
    return false;
  }
  return true;
}

/// The engine runs with its defaults: no inherited XQDB_* knob applies.
void ClearEngineEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string_view kv(*e);
    if (kv.starts_with("XQDB_")) {
      names.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_scan|paper_join|point_rw "
                 "--seed N --seconds S --out RAW.json "
                 "[--trace-out SPANS.jsonl] [--wrong-answer]\n");
    return 2;
  }
  if (!FitToMeasure()) return 3;
  const WorkloadSpec w = *LookupWorkload(args.workload);
  const bool tracing = !args.trace_out.empty();

  ClearEngineEnvironment();
  TraceRecords records;
  // Uninstalls the sink before `records` dies, on every return path; the
  // server, declared later, has stopped emitting by then.
  struct SinkGuard {
    ~SinkGuard() { SetTraceSinkForTesting(nullptr); }
  } sink_guard;
  if (tracing) {
    setenv("XQDB_TRACE", "1", 1);
    SetTraceSinkForTesting(
        [&records](const std::string& line) { records.Add(line); });
  }
  ThreadPool::SetGlobalThreads(kPoolThreads);

  OrdersWorkloadConfig cfg;
  cfg.num_orders = w.orders;
  cfg.seed = args.seed;

  // --- setup -------------------------------------------------------------
  std::vector<BuildTimes> builds;
  std::unique_ptr<Database> db;
  const long long setup_start = NowNs();
  while (static_cast<int>(builds.size()) < kMinBuilds ||
         (NowNs() - setup_start < kSetupBudgetNs &&
          static_cast<int>(builds.size()) < kMaxBuilds)) {
    db.reset();  // free the previous build before timing the next
    db = std::make_unique<Database>();
    BuildTimes t;
    if (Status s = BuildCollection(w, cfg, db.get(), &t); !s.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    builds.push_back(std::move(t));
  }
  auto orders_table = db->catalog().GetTable("ORDERS");
  if (!orders_table.ok()) return 1;
  const long long initial_orders =
      static_cast<long long>((*orders_table)->live_row_count());

  // --- server and connections ---------------------------------------------
  ServerOptions options;
  options.max_sessions = w.connections;
  options.worker_threads = w.connections;
  options.idle_timeout_ms = 600000;
  Server server(db.get(), options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  for (int k = 0; k < w.connections; ++k) {
    auto c = std::make_unique<Conn>();
    c->index = k;
    c->tracing = tracing;
    c->rng.seed(args.seed * 1000003ULL + static_cast<unsigned>(k));
    c->next_order_id = 10000000 + k * 1000000;
    if (Status s = c->client.Connect(server.port()); !s.ok()) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    // One request per connection, sent while no other is in flight, so the
    // newest trace record names this connection's session.
    long long ns = 0;
    c->Request("hello", "hello", "hello", Verb::kXQuery, "1", &ns);
    if (tracing) c->session = records.last_session();
    conns.push_back(std::move(c));
  }
  Conn* first = conns[0].get();

  // --- reference pass (read-only workloads) ---------------------------------
  const std::vector<PaperQuery>& queries = w.queries;
  std::vector<Answer> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    long long ns = 0;
    auto frame = first->Request("reference", "read", queries[i].name,
                                queries[i].is_sql ? Verb::kQuery : Verb::kXQuery,
                                queries[i].text, &ns);
    if (frame) expected[i] = Digest(frame->payload);
  }
  if (args.wrong_answer && !expected.empty()) expected[0].hash ^= 1;
  for (size_t k = 0; k < conns.size(); ++k) {
    conns[k]->cursor = k * queries.size() / conns.size();
  }

  // --- timed phase ----------------------------------------------------------
  long long wall_ns = 0;
  long long cpu_ns = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  const long long slice_ns = args.seconds * 1000000000LL / w.rounds;
  for (int round = 0; round < w.rounds; ++round) {
    const QueryCache::Stats c0 = db->query_cache_stats();
    const long long cpu0 = CpuNs();
    const long long t0 = NowNs();
    const long long deadline = t0 + slice_ns;
    std::vector<std::thread> threads;
    for (auto& c : conns) {
      Conn* conn = c.get();
      threads.emplace_back([&, conn] {
        if (queries.empty()) {
          RunPointSlice(conn, cfg, deadline);
        } else {
          RunPaperSlice(conn, queries, expected, deadline);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    wall_ns += NowNs() - t0;
    cpu_ns += CpuNs() - cpu0;
    const QueryCache::Stats c1 = db->query_cache_stats();
    cache_hits += c1.hits - c0.hits;
    cache_misses += c1.misses - c0.misses;
    for (int p = 0; p < w.probe_pairs && !first->dead; ++p) {
      if (InsertOrder(first, cfg, "probe")) DeleteOwnOrder(first, "probe");
    }
  }

  // --- answer checks --------------------------------------------------------
  if (queries.empty()) CheckPointLookups(first, db.get(), cfg);
  long long acked = initial_orders;
  for (const auto& c : conns) acked += c->inserts_acked - c->deletes_acked;
  if (args.wrong_answer && queries.empty()) ++acked;
  const long long live =
      static_cast<long long>((*orders_table)->live_row_count());
  ++first->attempted;
  if (live != acked) {
    first->Fail("orders holds " + std::to_string(live) +
                " rows; acknowledged writes leave " + std::to_string(acked));
  }

  for (auto& c : conns) c->client.Close();
  server.Stop();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  if (tracing) {
    if (Status s = WriteSpans(args.trace_out, w, builds, conns, &records);
        !s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // --- raw report -----------------------------------------------------------
  long long attempted = 0;
  long long failed = 0;
  long long completed = 0;
  std::vector<long long> read_ns, insert_ns, delete_ns;
  std::vector<std::string> errors;
  for (const auto& c : conns) {
    attempted += c->attempted;
    failed += c->failed;
    completed += c->completed;
    read_ns.insert(read_ns.end(), c->read_ns.begin(), c->read_ns.end());
    insert_ns.insert(insert_ns.end(), c->insert_ns.begin(), c->insert_ns.end());
    delete_ns.insert(delete_ns.end(), c->delete_ns.begin(), c->delete_ns.end());
    errors.insert(errors.end(), c->errors.begin(), c->errors.end());
  }

  std::string out = "{\"run\": {\"workload\": \"" + w.name + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + std::to_string(args.seconds);
  out += ", \"traced\": " + std::string(tracing ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": ";
  AppendJsonString(&out, __VERSION__);
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"pool_threads\": " +
         std::to_string(ThreadPool::Global().thread_count());
  out += ", \"connections\": " + std::to_string(w.connections);
  out += ", \"orders\": " + std::to_string(cfg.num_orders);
  out += ", \"customers\": " + std::to_string(cfg.num_customers);
  out += ", \"products\": " + std::to_string(cfg.num_products);
  out += ", \"rounds\": " + std::to_string(w.rounds);
  out += ", \"probe_pairs\": " + std::to_string(w.probe_pairs);
  out += "}, \"setup_ns\": [";
  for (size_t b = 0; b < builds.size(); ++b) {
    if (b > 0) out += ',';
    out += std::to_string(builds[b].end_ns - builds[b].start_ns);
  }
  out += "], \"timed\": {\"wall_ns\": " + std::to_string(wall_ns);
  out += ", \"cpu_ns\": " + std::to_string(cpu_ns);
  out += ", \"completed\": " + std::to_string(completed);
  out += ", \"cache_hits\": " + std::to_string(cache_hits);
  out += ", \"cache_misses\": " + std::to_string(cache_misses);
  out += "}, \"latency_ns\": {\"read\": ";
  AppendNumbers(&out, read_ns);
  out += ", \"insert\": ";
  AppendNumbers(&out, insert_ns);
  out += ", \"delete\": ";
  AppendNumbers(&out, delete_ns);
  out += "}, \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < errors.size() && i < 10; ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, errors[i]);
  }
  out += "], \"peak_rss_kb\": " + std::to_string(ru.ru_maxrss) + "}\n";

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr || std::fwrite(out.data(), 1, out.size(), f) != out.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace xqdb

int main(int argc, char** argv) { return xqdb::Main(argc, argv); }
