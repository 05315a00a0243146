// xqbench — the bench driver: one table of scenario rows, one report.
//
// The paper's evaluation is a set of paired formulations (Queries 1–30,
// Tips 1–12). What a reproduction can claim about them is their shape: the
// index-eligible form reads less and wins, and the gap grows with the
// collection. Each row below is a (workload, DDL, query, ExecOptions switch,
// thread count) with its expected outcome, its index claim and the rows it
// is paired against; those shapes are gates that fail the run.
//
//   xqbench [--out FILE] [--smoke] [--only EXP[,EXP...]]
//
//   --out    report path (default BENCH_xqbench.json), written atomically
//   --smoke  every gate at CI cost: orders workloads at a tenth of their
//            size (E-scale from 200 orders), 20 axes documents, not 120
//   --only   run only the rows of the named experiments (E2.2, E-axes, ...);
//            a gate that needs a row outside them is recorded as skipped
//
// Gates, one verdict line each; the exit status is 1 when any fails:
//   outcome  the row returned its expected row count or raised its error
//   claim    probe: index_entries_probed > 0; scan: index_entries_probed = 0
//            and rows_scanned >= the collection (not docs_scanned: without
//            an eligible index a value predicate runs behind a path-summary
//            probe that admits every document and reports docs_scanned = 0)
//   check    the row's own counter bounds and plan text
//   rows     paired rows running the same text return identical rows
//   reads    the row reads less than its partner by the pair's counter
//   speed    partner median / row median >= the pair's floor
//   sweep    the paired gap (partner median - row median) is larger at the
//            sweep's largest collection than at its smallest
// Timing gates (speed, sweep) are skipped in sanitizer builds, and a speed
// floor between thread counts on hosts with fewer cores than the threads.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "index/btree.h"
#include "index/xml_index.h"
#include "workload/generator.h"

namespace xqdb {
namespace {

// ---- The scenario table's vocabulary --------------------------------------

struct Counter {
  long long ExecStats::*field = nullptr;
  const char* name = "";
};
constexpr Counter kRowsScanned{&ExecStats::rows_scanned, "rows_scanned"};
constexpr Counter kDocsScanned{&ExecStats::docs_scanned, "docs_scanned"};
constexpr Counter kProbed{&ExecStats::index_entries_probed,
                          "index_entries_probed"};
constexpr Counter kBatches{&ExecStats::batches_executed, "batches_executed"};
constexpr Counter kBatchRows{&ExecStats::batch_rows, "batch_rows"};
constexpr Counter kIndexOnly{&ExecStats::index_only_rows, "index_only_rows"};
constexpr Counter kCacheHits{&ExecStats::plan_cache_hits, "plan_cache_hits"};
constexpr Counter kEmitted{&ExecStats::structural_join_emitted,
                           "structural_join_emitted"};

/// A counter bound the row's last trial must meet.
struct Check {
  Counter counter;
  long long min = 0;
  long long max = LLONG_MAX;
};
Check Positive(Counter c) { return {c, 1, LLONG_MAX}; }
Check Zero(Counter c) { return {c, 0, 0}; }

/// The row must read less than `against` by `counter` (when set) and be at
/// least `floor` times faster (0: the ratio is reported, not gated).
struct Pair {
  std::string against;
  Counter counter = {};
  double floor = 1.0;
};

enum class Shape { kOrders, kDeepChain, kWideFanout };
enum class Claim { kNone, kProbe, kScan };

/// What one trial times: the query on the group's loaded database; a fresh
/// load with the DDL in place (index upkeep at insert time); `text` (a
/// CREATE INDEX) on a freshly loaded table; or a non-query micro trial.
enum class Timed { kQuery, kLoad, kBuild, kMicro };

using Trial = std::function<long long()>;

// Every member has an initializer, so rows name only what they set.
struct Row {
  std::string name = {};  // experiment/label[/size]
  Shape shape = Shape::kOrders;
  OrdersWorkloadConfig orders = {};
  std::vector<std::string> ddl = {};
  std::string text = {};  // SQL if it starts with SELECT or CREATE, else XQuery
  ExecOptions options = {};
  int threads = 1;
  long long rows = 0;     // expected rows; index entries for kLoad/kBuild
  std::string error = {};  // expected error code: the row must raise it
  Claim claim = Claim::kNone;
  std::vector<Pair> pairs = {};
  std::vector<Check> checks = {};
  std::string plan = {};  // text the plan must contain
  Timed timed = Timed::kQuery;
  std::function<Trial()> micro = {};  // kMicro: untimed setup, the trial
};

OrdersWorkloadConfig Orders(int n) {
  OrdersWorkloadConfig c;
  c.num_orders = n;
  return c;
}

std::string Sized(const std::string& name, long long n) {
  return name + "/" + std::to_string(n);
}

// ---- The scenario table ---------------------------------------------------

const char kLiPrice[] =
    "CREATE INDEX li_price ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE";
const char kLiPriceS[] =
    "CREATE INDEX li_price_s ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/@price' AS SQL VARCHAR(32)";
const char kCustidIndex[] =
    "CREATE INDEX o_custid ON orders(orddoc) "
    "USING XMLPATTERN '//custid' AS SQL DOUBLE";

std::string Q1(const std::string& threshold) {
  return "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
         "//order[lineitem/@price > " + threshold + "] return $i";
}
const char kQ2[] =
    "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
    "//order[lineitem/@* > 950] return $i";
const char kCastQuery[] =
    "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
    "/order[custid/xs:double(.) = 17] return $i";
const char kQ16[] =
    "SELECT c.cid, o.ordid FROM customer c, orders o "
    "WHERE XMLEXISTS('$order/order[custid/xs:double(.) = "
    "$cust/customer/id/xs:double(.)]' "
    "passing o.orddoc as \"order\", c.cdoc as \"cust\")";
const char kQ27[] =
    "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem "
    "where $i/product/id/data(.) = 'p7' return $i/@price";
const char kQ28[] =
    "declare default element namespace \"http://ournamespaces.com/order\"; "
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/@price > 950]";
const char kNationQuery[] =
    "declare namespace c=\"http://ournamespaces.com/customer\"; "
    "db2-fn:xmlcolumn('CUSTOMER.CDOC')/c:customer[c:nation = 1]";
// 161.29 is the first lineitem price of order 0 at seed 42: the aligned
// probes must find rows for the misaligned scans to be checked against.
const char kTextQuery[] =
    "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
    "/order[lineitem/price/text() = \"161.29\"] return $ord";
const char kElementQuery[] =
    "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
    "/order[lineitem/price = \"161.29\"] return $ord";
const char kAttrQuery[] =
    "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 950]";
const char kScanSql[] =
    "SELECT ordid FROM orders WHERE XMLEXISTS("
    "'$order//lineitem[@price > 995]' passing orddoc as \"order\")";

std::string Between(const char* step, int lo, int hi) {
  return std::string("for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order["
                     "lineitem[") + step + " > " + std::to_string(lo) +
         " and " + step + " < " + std::to_string(hi) + "]] return $i";
}
// fn:exists keeps the self-axis form an EBV-safe existence test when
// several prices qualify (the bare multi-atomic predicate is FORG0006).
std::string SelfAxisBetween(int lo, int hi) {
  return "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem"
         "[fn:exists(price/data()[. > " + std::to_string(lo) + " and . < " +
         std::to_string(hi) + "])]] return $i";
}

struct Ref {
  uint32_t row;
  int32_t node;
};

Trial BtreeInsert(int n) {
  return [n] {
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(0, 1e6);
    BPlusTree<double, Ref> tree;
    for (int i = 0; i < n; ++i) {
      tree.Insert(dist(rng), Ref{static_cast<uint32_t>(i), 0});
    }
    return static_cast<long long>(tree.size());
  };
}

Trial MultimapInsert(int n) {
  return [n] {
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(0, 1e6);
    std::multimap<double, Ref> tree;
    for (int i = 0; i < n; ++i) {
      tree.emplace(dist(rng), Ref{static_cast<uint32_t>(i), 0});
    }
    return static_cast<long long>(tree.size());
  };
}

Trial BtreeRangeScan(int n) {
  auto tree = std::make_shared<BPlusTree<double, Ref>>();
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(0, 1e6);
  for (int i = 0; i < n; ++i) {
    tree->Insert(dist(rng), Ref{static_cast<uint32_t>(i), 0});
  }
  return [tree] {
    return static_cast<long long>(
        tree->Scan(ScanBound<double>::Inclusive(4e5),
                   ScanBound<double>::Exclusive(6e5),
                   [](const double&, const Ref&) {}));
  };
}

/// 10,000 point lookups of random keys per trial.
Trial BtreePointLookups(int n) {
  auto tree = std::make_shared<BPlusTree<double, Ref>>();
  for (int i = 0; i < n; ++i) {
    tree->Insert(static_cast<double>(i), Ref{static_cast<uint32_t>(i), 0});
  }
  return [tree, n] {
    std::mt19937 rng(13);
    std::uniform_int_distribution<int> pick(0, n - 1);
    long long hits = 0;
    for (int i = 0; i < 10000; ++i) {
      hits += static_cast<long long>(tree->ScanEqual(
          static_cast<double>(pick(rng)), [](const Ref&) {}));
    }
    return hits;
  };
}

Trial BtreeStringInsert(int n) {
  return [n] {
    std::mt19937 rng(7);
    BPlusTree<std::string, Ref> tree;
    for (int i = 0; i < n; ++i) {
      tree.Insert("key-" + std::to_string(rng() % 100000),
                  Ref{static_cast<uint32_t>(i), 0});
    }
    return static_cast<long long>(tree.size());
  };
}

/// --smoke runs every orders workload at a tenth of its size.
int Scaled(int n, bool smoke) { return smoke ? n / 10 : n; }
int AxesDocs(bool smoke) { return smoke ? 20 : 120; }

/// Every row of the bench. Paper rows run on one thread; expected row
/// counts are for seed 42, written R(full size, --smoke size).
std::vector<Row> Table(bool smoke) {
  std::vector<Row> t;
  auto R = [smoke](long long full, long long small) {
    return smoke ? small : full;
  };
  auto orders = [smoke](int n) { return Orders(Scaled(n, smoke)); };
  // The common row: a query paired, when `against` is set, with the row
  // that must read more by rows_scanned.
  auto query = [&](const std::string& name, const OrdersWorkloadConfig& c,
                   std::vector<std::string> ddl, const std::string& text,
                   long long rows, Claim claim,
                   const std::string& against = "") {
    std::vector<Pair> pairs;
    if (!against.empty()) pairs.push_back({against, kRowsScanned});
    t.push_back({.name = name, .orders = c, .ddl = std::move(ddl),
                 .text = text, .rows = rows, .claim = claim,
                 .pairs = std::move(pairs)});
  };

  // E2.2 — Queries 1/2, Definition 1.
  for (int nominal : {1000, 10000}) {
    const int n = Scaled(nominal, smoke);
    const long long rows = nominal == 1000 ? R(110, 8) : R(1215, 110);
    query(Sized("E2.2/q1_index", n), Orders(n), {kLiPrice}, Q1("950"), rows,
          Claim::kProbe, Sized("E2.2/q1_noindex", n));
    t.back().pairs.push_back({Sized("E2.2/q2_wildcard", n), kRowsScanned});
    query(Sized("E2.2/q1_noindex", n), Orders(n), {}, Q1("950"), rows,
          Claim::kScan);
    query(Sized("E2.2/q2_wildcard", n), Orders(n), {kLiPrice}, kQ2, rows,
          Claim::kScan);
  }
  // Selectivity at 10k orders (950 is q1_index). From threshold 500 the
  // cost model sees the probe would read half the index or more, and scans.
  for (const auto& [th, rows] :
       {std::pair{999, R(28, 2)}, {750, R(4895, 496)}, {500, R(7689, 769)},
        {1, R(10000, 1000)}}) {
    query(Sized("E2.2/q1_threshold", th), orders(10000), {kLiPrice},
          Q1(std::to_string(th)), rows,
          th > 500 ? Claim::kProbe : Claim::kScan);
  }

  // E3.1 — comparison data types (Queries 3/4, Tip 1), 5k orders: a
  // quoted literal is a string comparison, served only by a VARCHAR index.
  const std::string string_literal = Q1("\"950\"");
  query("E3.1/numeric_double_index", orders(5000), {kLiPrice, kLiPriceS},
        Q1("950"), R(579, 46), Claim::kProbe,
        "E3.1/string_double_index_only");
  query("E3.1/string_varchar_index", orders(5000), {kLiPrice, kLiPriceS},
        string_literal, R(620, 47), Claim::kProbe,
        "E3.1/string_double_index_only");
  query("E3.1/string_double_index_only", orders(5000), {kLiPrice},
        string_literal, R(620, 47), Claim::kScan);
  query("E3.1/cast_double_index", orders(5000), {kCustidIndex}, kCastQuery,
        R(48, 2), Claim::kProbe, "E3.1/cast_no_index");
  query("E3.1/cast_no_index", orders(5000), {}, kCastQuery, R(48, 2),
        Claim::kScan);
  query("E3.1/date_index", orders(5000),
        {"CREATE INDEX o_date ON orders(orddoc) USING XMLPATTERN "
         "'/order/date' AS SQL DATE"},
        "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
        "/order[date/xs:date(.) = xs:date(\"2006-06-14\")] return $i",
        R(15, 2), Claim::kProbe);

  // E3.2 — SQL/XML query functions (Queries 5–12, Tips 2–4), 3k orders.
  query("E3.2/q5_xmlquery_select_list", orders(3000), {kLiPrice},
        "SELECT XMLQUERY('$order//lineitem[@price > 950]' "
        "passing orddoc as \"order\") FROM orders",
        R(3000, 300), Claim::kScan);
  query("E3.2/q7_standalone_xquery", orders(3000), {kLiPrice},
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 950]",
        R(385, 27), Claim::kProbe, "E3.2/q5_xmlquery_select_list");
  query("E3.2/q8_xmlexists", orders(3000), {kLiPrice},
        "SELECT ordid, orddoc FROM orders WHERE XMLEXISTS("
        "'$order//lineitem[@price > 950]' passing orddoc as \"order\")",
        R(358, 25), Claim::kProbe, "E3.2/q9_boolean_trap");
  query("E3.2/q9_boolean_trap", orders(3000), {kLiPrice},
        "SELECT ordid FROM orders WHERE XMLEXISTS("
        "'$order//lineitem/@price > 950' passing orddoc as \"order\")",
        R(3000, 300), Claim::kScan);
  query("E3.2/q10_exists_plus_query", orders(3000), {kLiPrice},
        "SELECT ordid, XMLQUERY('$order//lineitem[@price > 950]' "
        "passing orddoc as \"order\") FROM orders WHERE XMLEXISTS("
        "'$order//lineitem[@price > 950]' passing orddoc as \"order\")",
        R(358, 25), Claim::kProbe);
  query("E3.2/q11_xmltable_row_producer", orders(3000), {kLiPrice},
        "SELECT o.ordid, t.lineitem FROM orders o, "
        "XMLTABLE('$order//lineitem[@price > 950]' "
        "passing o.orddoc as \"order\" "
        "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)",
        R(385, 27), Claim::kProbe, "E3.2/q12_xmltable_column");
  query("E3.2/q12_xmltable_column", orders(3000), {kLiPrice},
        "SELECT o.ordid, t.price FROM orders o, "
        "XMLTABLE('$order//lineitem' passing o.orddoc as \"order\" "
        "COLUMNS \"lineitem\" XML BY REF PATH '.', "
        "\"price\" DECIMAL(6,3) PATH '@price[. > 950]') as t(lineitem, price)",
        R(7492, 739), Claim::kScan);

  // E3.3 — joins (Queries 13–16, Tips 5/6): 50 customers, 20 products.
  for (int nominal : {200, 1000}) {
    OrdersWorkloadConfig c = orders(nominal);
    c.num_customers = 50;
    c.num_products = 20;
    const int n = c.num_orders;
    auto join = [&](const char* name, const char* text, long long rows) {
      query(Sized(std::string("E3.3/") + name, n), c, {}, text, rows,
            Claim::kScan);
    };
    join("q4_xquery_join_casts",
         "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order "
         "for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer "
         "where $i/custid/xs:double(.) = $j/id/xs:double(.) return $i",
         n);
    join("q13_xquery_side_join",
         "SELECT p.name FROM products p, orders o "
         "WHERE XMLEXISTS('$order//lineitem/product[id eq $pid]' "
         "passing o.orddoc as \"order\", p.id as \"pid\")",
         nominal == 200 ? R(470, 56) : R(2358, 235));
    join("q15_sql_side_xmlcast_join",
         "SELECT c.cid FROM orders o, customer c "
         "WHERE XMLCAST(XMLQUERY('$order/order/custid' passing o.orddoc as "
         "\"order\") AS DOUBLE) = "
         "XMLCAST(XMLQUERY('$cust/customer/id' passing c.cdoc as \"cust\") "
         "AS DOUBLE)",
         n);
    join("q16_xquery_side_xml_join",
         "SELECT c.cid FROM orders o, customer c "
         "WHERE XMLEXISTS('$order/order[custid/xs:double(.) = "
         "$cust/customer/id/xs:double(.)]' "
         "passing o.orddoc as \"order\", c.cdoc as \"cust\")",
         n);
    // Tip 6: customers outer, each probing o_custid, against the same
    // join order scanning every order per customer.
    query(Sized("E3.3/q16_index_probe", n), c, {kCustidIndex}, kQ16, n,
          Claim::kProbe, Sized("E3.3/q16_customer_outer", n));
    join("q16_customer_outer", kQ16, n);
  }

  // E3.4 — let vs for (Queries 17–22, Tip 7), 5k orders.
  auto letfor = [&](const char* name, const char* text, long long rows,
                    Claim claim, const char* against = "") {
    query(std::string("E3.4/") + name, orders(5000), {kLiPrice}, text, rows,
          claim, against);
  };
  letfor("q17_for_binding",
         "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
         "for $item in $doc//lineitem[@price > 950] "
         "return <result>{$item}</result>",
         R(613, 51), Claim::kProbe, "E3.4/q18_let_binding");
  letfor("q18_let_binding",
         "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
         "let $item := $doc//lineitem[@price > 950] "
         "return <result>{$item}</result>",
         R(5000, 500), Claim::kScan);
  letfor("q19_constructor_in_return",
         "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
         "return <result>{$ord/lineitem[@price > 950]}</result>",
         R(5000, 500), Claim::kScan);
  letfor("q20_where_predicate",
         "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
         "where $ord/lineitem/@price > 950 "
         "return <result>{$ord/lineitem}</result>",
         R(579, 46), Claim::kProbe, "E3.4/q19_constructor_in_return");
  letfor("q21_let_rescued_by_where",
         "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
         "let $price := $ord/lineitem/@price where $price > 950 "
         "return <result>{$ord/lineitem}</result>",
         R(579, 46), Claim::kProbe, "E3.4/q18_let_binding");
  letfor("q22_bind_out",
         "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
         "return $ord/lineitem[@price > 950]",
         R(613, 51), Claim::kProbe, "E3.4/q19_constructor_in_return");

  // E3.5 — document vs element nodes (Queries 23–25, Tip 8), 3k orders.
  query("E3.5/q23_document_node", orders(3000), {},
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem", R(7492, 739),
        Claim::kNone);
  query("E3.5/q23_wrong_extra_step", orders(3000), {},
        "db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/order/lineitem", 0,
        Claim::kNone);
  query("E3.5/q24_constructed_context", orders(3000), {},
        "for $ord in (for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
        "return <my_order>{$o/*}</my_order>) return $ord/my_order",
        0, Claim::kNone);
  t.push_back({.name = "E3.5/q25_absolute_path_type_error",
               .orders = orders(3000),
               .text = "let $order := <neworder>{db2-fn:xmlcolumn("
                       "'ORDERS.ORDDOC')/order[custid > 40]}</neworder> "
                       "return $order[//customer/name]",
               .error = "XPDY0050"});

  // E3.6 — construction barriers (Queries 26/27, Tip 9), 2k orders.
  const char kProductIdIndex[] =
      "CREATE INDEX li_pid ON orders(orddoc) USING XMLPATTERN "
      "'/order/lineitem/product/id' AS SQL VARCHAR(16)";
  query("E3.6/q26_through_view", orders(2000), {kProductIdIndex},
        "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/"
        "lineitem return <item>{$i/@quantity}{$i/@price}"
        "<pid>{$i/product/id/data(.)}</pid></item> "
        "for $j in $view where $j/pid = 'p7' return $j/@price",
        R(90, 7), Claim::kScan);
  query("E3.6/q27_pushed_down", orders(2000), {kProductIdIndex}, kQ27,
        R(90, 7), Claim::kProbe, "E3.6/q26_through_view");
  t.back().pairs.push_back({"E3.6/q27_no_index", kRowsScanned});
  query("E3.6/q27_no_index", orders(2000), {}, kQ27, R(90, 7), Claim::kScan);
  query("E3.6/construct_every_order", orders(2000), {},
        "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
        "return <wrapped>{$o}</wrapped>",
        R(2000, 200), Claim::kNone);
  query("E3.6/no_construction_baseline", orders(2000), {},
        "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return $o",
        R(2000, 200), Claim::kNone);
  t.back().pairs.push_back({"E3.6/construct_every_order", {}, 0});

  // E3.7 — namespaces (Query 28, Tip 10), 5k namespaced orders: an index
  // pattern without the data's namespace indexes nothing.
  OrdersWorkloadConfig ns = orders(5000);
  ns.use_namespaces = true;
  const std::string kOrderNs =
      "declare default element namespace "
      "\"http://ournamespaces.com/order\"; ";
  query("E3.7/q28_namespaceless_index", ns, {kLiPrice}, kQ28, R(579, 46),
        Claim::kScan);
  query("E3.7/q28_attribute_pattern_index", ns,
        {"CREATE INDEX li_price_ns ON orders(orddoc) USING XMLPATTERN "
         "'//@price' AS SQL DOUBLE"},
        kQ28, R(579, 46), Claim::kProbe, "E3.7/q28_namespaceless_index");
  query("E3.7/q28_declared_namespace_index", ns,
        {"CREATE INDEX li_price_d ON orders(orddoc) USING XMLPATTERN '" +
         kOrderNs + "//lineitem/@price' AS SQL DOUBLE"},
        kQ28, R(579, 46), Claim::kProbe, "E3.7/q28_namespaceless_index");
  query("E3.7/nation_wildcard_index", ns,
        {"CREATE INDEX w_nation ON customer(cdoc) USING XMLPATTERN "
         "'//*:nation' AS SQL DOUBLE"},
        kNationQuery, 5, Claim::kProbe,
        "E3.7/nation_wrong_namespace_index");
  query("E3.7/nation_wrong_namespace_index", ns,
        {"CREATE INDEX o_nation ON customer(cdoc) USING XMLPATTERN '" +
         kOrderNs + "//nation' AS SQL DOUBLE"},
        kNationQuery, 5, Claim::kScan);

  // E3.8 — text() alignment (Query 29, Tip 11), 10% "99.50USD" prices:
  // each query form is served only by the index of the same form.
  OrdersWorkloadConfig usd = orders(5000);
  usd.string_price_fraction = 0.1;
  const char kElementIndex[] =
      "CREATE INDEX price_elem ON orders(orddoc) USING XMLPATTERN "
      "'//price' AS SQL VARCHAR(32)";
  const char kTextIndex[] =
      "CREATE INDEX price_text ON orders(orddoc) USING XMLPATTERN "
      "'//price/text()' AS SQL VARCHAR(32)";
  query("E3.8/text_query_text_index", usd, {kTextIndex}, kTextQuery, 1,
        Claim::kProbe, "E3.8/text_query_element_index");
  query("E3.8/text_query_element_index", usd, {kElementIndex}, kTextQuery, 1,
        Claim::kScan);
  query("E3.8/element_query_element_index", usd, {kElementIndex},
        kElementQuery, 1, Claim::kProbe, "E3.8/element_query_text_index");
  query("E3.8/element_query_text_index", usd, {kTextIndex}, kElementQuery, 1,
        Claim::kScan);

  // E3.9 — attribute axes (Tip 12): which broad pattern holds attributes.
  auto attrs = [&](const char* name, const char* pattern, Claim claim,
                   const char* against = "") {
    query(std::string("E3.9/") + name, orders(5000),
          {std::string("CREATE INDEX broad ON orders(orddoc) USING "
                       "XMLPATTERN '") + pattern + "' AS SQL DOUBLE"},
          kAttrQuery, R(579, 46), claim, against);
  };
  attrs("broad_attribute_index", "//@*", Claim::kProbe,
        "E3.9/element_wildcard_index");
  attrs("element_wildcard_index", "//*", Claim::kScan);
  attrs("node_kind_index", "//node()", Claim::kScan);
  attrs("full_axis_notation_index",
        "/descendant-or-self::node()/attribute::*", Claim::kProbe,
        "E3.9/node_kind_index");

  // E3.10 — between (Query 30), 10k orders, 10% multi-price lineitems. The
  // attribute is a singleton, so its bounds merge into one range scan; the
  // repeatable price element takes two half-open scans ANDed.
  OrdersWorkloadConfig multi = orders(10000);
  multi.multi_price_fraction = 0.1;
  const char kElemPrice[] =
      "CREATE INDEX li_price_e ON orders(orddoc) USING XMLPATTERN "
      "'//lineitem/price' AS SQL DOUBLE";
  query("E3.10/attribute_between", multi, {kLiPrice},
        Between("@price", 900, 920), R(483, 52), Claim::kProbe,
        "E3.10/between_no_index");
  t.back().pairs.push_back({"E3.10/element_between", kProbed});
  query("E3.10/element_between", multi, {kElemPrice},
        Between("price", 900, 920), R(658, 71), Claim::kProbe);
  query("E3.10/self_axis_between", multi, {kElemPrice},
        SelfAxisBetween(900, 920), R(483, 52), Claim::kProbe);
  t.back().pairs.push_back({"E3.10/element_between", kProbed});
  query("E3.10/between_no_index", multi, {}, Between("@price", 900, 920),
        R(483, 52), Claim::kScan);
  // Width sweep around 500. A 500-wide attribute band admits ~77% of the
  // orders; the cost model's probe-or-scan choice there flips with the
  // collection size, so that row claims neither and its pair is reported.
  for (const auto& [w, attr_rows, elem_rows] :
       {std::tuple{10, R(269, 21), R(1431, 136)},
        {100, R(2291, 215), R(3166, 301)}, {500, R(7697, 759), R(7885, 777)}}) {
    const std::string elem = Sized("E3.10/element_width", w);
    query(Sized("E3.10/attribute_width", w), multi, {kLiPrice},
          Between("@price", 500 - w / 2, 500 + w / 2), attr_rows,
          w < 500 ? Claim::kProbe : Claim::kNone);
    t.back().pairs = {w < 500 ? Pair{elem, kProbed} : Pair{elem, {}, 0}};
    query(elem, multi, {kElemPrice},
          Between("price", 500 - w / 2, 500 + w / 2), elem_rows,
          Claim::kProbe);
  }

  // E-scale — §1: at a fixed ~0.5% selectivity the index/scan gap grows
  // with the collection. --smoke skips 500 (its 50 orders hold no match).
  for (const auto& [nominal, rows] :
       {std::pair{500, 5LL}, {2000, R(28, 1)}, {8000, R(98, 9)},
        {32000, R(414, 40)}}) {
    if (smoke && nominal == 500) continue;
    const int n = Scaled(nominal, smoke);
    query(Sized("E-scale/index", n), Orders(n), {kLiPrice}, Q1("995"), rows,
          Claim::kProbe, Sized("E-scale/scan", n));
    query(Sized("E-scale/scan", n), Orders(n), {}, Q1("995"), rows,
          Claim::kScan);
  }

  // E-index — §2.1: index upkeep during a load (the DDL precedes the
  // orders), tolerant casts, and CREATE INDEX alone on a loaded table.
  for (int nominal : {1000, 5000}) {
    const int n = Scaled(nominal, smoke);
    const bool small = nominal == 1000;
    auto load = [&](const char* name, const std::string& ddl,
                    long long entries, double string_prices = 0) {
      OrdersWorkloadConfig c = Orders(n);
      c.string_price_fraction = string_prices;
      t.push_back({.name = Sized(std::string("E-index/") + name, n),
                   .orders = c,
                   .ddl = ddl.empty() ? std::vector<std::string>{}
                                      : std::vector<std::string>{ddl},
                   .rows = entries, .timed = Timed::kLoad});
    };
    load("load_no_index", "", 0);
    load("load_narrow_index", kLiPrice,
         small ? R(2500, 257) : R(12419, 1232));
    load("load_broad_attribute_index",
         "CREATE INDEX all_attrs ON orders(orddoc) USING XMLPATTERN '//@*' "
         "AS SQL DOUBLE",
         small ? R(5000, 514) : R(24838, 2464));
    // The paper's "index everything" warning: several-fold the entries.
    load("load_everything_varchar_index",
         "CREATE INDEX everything ON orders(orddoc) USING XMLPATTERN '//*' "
         "AS SQL VARCHAR(64)",
         small ? R(15500, 1585) : R(77095, 7660));
    // 30% "99.50USD" prices: the DOUBLE index skips them, no insert fails.
    load("load_tolerant_casts",
         "CREATE INDEX price_d ON orders(orddoc) USING XMLPATTERN "
         "'//lineitem/price' AS SQL DOUBLE",
         small ? R(1753, 181) : R(8664, 884), 0.3);
    for (int threads : {1, 4}) {
      t.push_back({.name = Sized("E-index/create_index_t" +
                                     std::to_string(threads), n),
                   .orders = Orders(n), .text = kLiPrice, .threads = threads,
                   .rows = small ? R(2500, 257) : R(12419, 1232),
                   .timed = Timed::kBuild});
    }
    t.back().pairs = {{Sized("E-index/create_index_t1", n), {}, 0}};
  }

  // E-parallel — the unindexed XMLEXISTS scan over the thread ladder (at 4
  // threads no slower than at 1, and the batch kernels engaged), the
  // eligible scan, and the compiled-query cache; 4k orders.
  const long long scan_rows = R(47, 3);
  for (int threads : {1, 2, 4, 8}) {
    t.push_back({.name = "E-parallel/scan_t" + std::to_string(threads),
                 .orders = orders(4000), .text = kScanSql,
                 .threads = threads, .rows = scan_rows});
    if (threads > 1) {
      t.back().pairs = {{"E-parallel/scan_t1", {}, threads == 4 ? 1.0 : 0}};
    }
    if (threads == 4) {
      t.back().pairs.push_back({"E-batch/filter_row_at_a_time", {}, 1.5});
      t.back().checks = {Positive(kBatches), Positive(kBatchRows)};
    }
  }
  query("E-parallel/scan_indexed", orders(4000), {kLiPrice}, kScanSql,
        scan_rows, Claim::kProbe, "E-parallel/scan_t1");
  const char kPointQuery[] =
      "SELECT ordid FROM orders WHERE XMLEXISTS("
      "'$order//lineitem[@price > 999.5]' passing orddoc as \"order\")";
  t.push_back({.name = "E-parallel/query_cold_parse_plan",
               .orders = orders(4000), .ddl = {kLiPrice},
               .text = kPointQuery, .options = {.disable_cache = true},
               .rows = R(4, 0)});
  t.push_back({.name = "E-parallel/query_cached_plan", .orders = orders(4000),
               .ddl = {kLiPrice}, .text = kPointQuery, .rows = R(4, 0),
               .pairs = {{"E-parallel/query_cold_parse_plan", {}, 0}},
               .checks = {Positive(kCacheHits)}});

  // E-batch — row-at-a-time filtering (its batch side is
  // E-parallel/scan_t4), and the covering count answered index-only.
  t.push_back({.name = "E-batch/filter_row_at_a_time",
               .orders = orders(4000), .text = kScanSql,
               .options = {.disable_batch = true}, .threads = 4,
               .rows = scan_rows});
  const char kCount[] =
      "fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price)";
  t.push_back({.name = "E-batch/aggregate_collection_scan",
               .orders = orders(4000), .ddl = {kLiPrice}, .text = kCount,
               .options = {.disable_batch = true}, .rows = 1});
  t.push_back({.name = "E-batch/aggregate_index_only",
               .orders = orders(4000), .ddl = {kLiPrice}, .text = kCount,
               .rows = 1,
               .pairs = {{"E-batch/aggregate_collection_scan", {}, 0}},
               .checks = {Positive(kIndexOnly), Zero(kDocsScanned)}});

  // E-axes — structural joins vs the recursive walk on deep chains and wide
  // fanout, where only the deep descendant gap is a claim; and //a//b
  // existence answered by the path summary with no document opened.
  const int docs = AxesDocs(smoke);
  for (Shape shape : {Shape::kDeepChain, Shape::kWideFanout}) {
    const bool deep = shape == Shape::kDeepChain;
    for (const bool descendant : {true, false}) {
      const std::string base = std::string("E-axes/") +
                               (descendant ? "descendant_" : "ancestor_") +
                               (deep ? "deep" : "wide");
      const char* text = descendant
                             ? "db2-fn:xmlcolumn('AXES.DOC')//wrap//leaf"
                             : "for $l in db2-fn:xmlcolumn('AXES.DOC')//leaf "
                               "return count($l/ancestor::wrap)";
      const long long leaves = deep ? docs : docs * 64LL;
      t.push_back({.name = base + "_structural", .shape = shape,
                   .text = text, .options = {.disable_cache = true},
                   .rows = leaves,
                   .pairs = {{base + "_recursive", {},
                              deep && descendant ? 5.0 : 0}},
                   .checks = {Positive(kEmitted)}});
      t.push_back({.name = base + "_recursive", .shape = shape, .text = text,
                   .options = {.disable_cache = true,
                               .disable_structural = true},
                   .rows = leaves});
    }
  }
  t.push_back({.name = "E-axes/summary_existence_probe",
               .shape = Shape::kDeepChain,
               .ddl = {"CREATE INDEX leaf_val ON axes(doc) "
                       "USING XMLPATTERN '//meta/@k' AS SQL DOUBLE"},
               .text = "db2-fn:xmlcolumn('AXES.DOC')/doc[wrap//leaf]",
               .options = {.disable_cache = true}, .rows = docs,
               .checks = {Zero(kDocsScanned)},
               .plan = "PATH SUMMARY EXISTENCE PROBE"});
  // A structural predicate 40 orders hold, with an eligible VARCHAR index
  // of the same pattern, of every element, or with none: the DataGuide
  // admits exactly the 40 holders and no index entry is read.
  std::string giftwraps = "INSERT INTO orders VALUES ";
  for (int i = 0; i < 40; ++i) {
    giftwraps += (i > 0 ? ", (" : "(") + std::to_string(900000 + i) +
                 ", '<order><custid>" + std::to_string(i) +
                 "</custid><giftwrap/></order>')";
  }
  for (const auto& [label, index] :
       {std::pair{"same_pattern_index",
                  "CREATE INDEX gw ON orders(orddoc) USING XMLPATTERN "
                  "'//giftwrap' AS SQL VARCHAR(16)"},
        {"everything_index",
         "CREATE INDEX everything ON orders(orddoc) USING XMLPATTERN '//*' "
         "AS SQL VARCHAR(64)"},
        {"no_index", ""}}) {
    std::vector<std::string> ddl = {giftwraps};
    if (*index != '\0') ddl.push_back(index);
    t.push_back({.name = std::string("E-axes/existence_") + label,
                 .orders = orders(4000), .ddl = std::move(ddl),
                 .text = "SELECT ordid FROM orders WHERE XMLEXISTS("
                         "'$o/order/giftwrap' passing orddoc as \"o\")",
                 .rows = 40,
                 .checks = {Zero(kProbed), Zero(kDocsScanned)},
                 .plan = "PATH SUMMARY EXISTENCE PROBE"});
    if (*index != '\0') {
      t.back().pairs = {{"E-axes/existence_no_index", {}, 0}};
    }
  }

  // E-btree — the B+Tree under every value index against std::multimap;
  // the same sizes in --smoke.
  auto micro = [&](const std::string& name, int n, long long rows,
                   Trial (*make)(int)) {
    t.push_back({.name = Sized("E-btree/" + name, n), .rows = rows,
                 .timed = Timed::kMicro,
                 .micro = [make, n] { return make(n); }});
  };
  for (int n : {1000, 10000, 100000}) {
    micro("btree_insert", n, n, BtreeInsert);
    t.back().pairs = {{Sized("E-btree/multimap_insert", n), {}, 0}};
    micro("multimap_insert", n, n, MultimapInsert);
  }
  micro("btree_range_scan", 10000, 2007, BtreeRangeScan);
  micro("btree_range_scan", 100000, 20104, BtreeRangeScan);
  micro("btree_point_lookups", 10000, 10000, BtreePointLookups);
  micro("btree_point_lookups", 1000000, 10000, BtreePointLookups);
  micro("btree_string_insert", 10000, 10000, BtreeStringInsert);
  return t;
}

/// Paired gaps that must grow from the smallest to the largest collection
/// among the rows named `row`/N.
const std::pair<const char*, const char*> kSweeps[] = {
    {"E2.2/q1_index", "E2.2/q1_noindex"},
    {"E-scale/index", "E-scale/scan"},
};

// ---- Running rows ---------------------------------------------------------

bool IsSql(const std::string& text) {
  return text.rfind("SELECT", 0) == 0 || text.rfind("CREATE", 0) == 0;
}

std::string AxesDoc(Shape shape, int i) {
  // Deep: a chain of 96 <wrap>s, so the recursive //wrap//leaf re-scans
  // the tail once per level. Wide: 64 sibling items under one <wrap>.
  std::string xml = "<doc>";
  if (shape == Shape::kDeepChain) {
    for (int d = 0; d < 96; ++d) xml += "<wrap>";
    xml += "<leaf>" + std::to_string(i) + "</leaf>";
    for (int d = 0; d < 96; ++d) xml += "</wrap>";
  } else {
    xml += "<wrap>";
    for (int k = 0; k < 64; ++k) {
      xml += "<item><leaf>" + std::to_string(i * 1000 + k) + "</leaf></item>";
    }
    xml += "</wrap>";
  }
  return xml + "</doc>";
}

/// Loads the row's workload and DDL into `db`.
Status LoadWorkload(const Row& row, int axes_docs, Database* db) {
  if (row.shape == Shape::kOrders) {
    XQDB_RETURN_IF_ERROR(LoadPaperWorkload(db, row.orders));
  } else {
    XQDB_RETURN_IF_ERROR(
        db->ExecuteSql("CREATE TABLE axes (id INTEGER, doc XML)").status());
    for (int i = 0; i < axes_docs; ++i) {
      XQDB_RETURN_IF_ERROR(db->ExecuteSql("INSERT INTO axes VALUES (" +
                                          std::to_string(i) + ", '" +
                                          AxesDoc(row.shape, i) + "')")
                               .status());
    }
  }
  for (const std::string& stmt : row.ddl) {
    XQDB_RETURN_IF_ERROR(db->ExecuteSql(stmt).status());
  }
  return Status::OK();
}

/// Rows sharing a key run against one database: the shape, every field of
/// the workload config, and the DDL set.
std::string GroupKey(const Row& row) {
  static_assert(sizeof(OrdersWorkloadConfig) == 72,
                "a new OrdersWorkloadConfig field must join the group key");
  if (row.timed != Timed::kQuery) return "#" + row.name;
  const OrdersWorkloadConfig& c = row.orders;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%d|%d|%u|%d|%d|%.17g|%.17g|%d|%d|%.17g|%.17g|%d|%.17g",
                static_cast<int>(row.shape), c.num_orders, c.seed,
                c.lineitems_min, c.lineitems_max, c.price_min, c.price_max,
                c.num_customers, c.num_products, c.multi_price_fraction,
                c.string_price_fraction, c.use_namespaces ? 1 : 0,
                c.canadian_postal_fraction);
  std::string key = buf;
  for (const std::string& stmt : row.ddl) {
    key += ';';
    key += stmt;
  }
  return key;
}

long long OrderIndexEntries(Database* db) {
  auto table = db->catalog().GetTable("ORDERS");
  long long entries = 0;
  if (table.ok()) {
    for (const XmlIndex* idx : (*table)->indexes().XmlIndexesOn("ORDDOC")) {
      entries += static_cast<long long>(idx->entry_count());
    }
  }
  return entries;
}

/// What one row measured: trial times plus the last trial's outcome.
struct Measured {
  std::vector<double> ns;  // sorted trial times
  bool ok = false;
  std::string error;  // the last trial's error, when it failed
  long long rows = 0;
  size_t digest = 0;  // hash of the rendered rows
  ExecStats stats;
  std::string plan;
  std::string lint = "[]";

  double Quantile(double q) const {
    if (ns.empty()) return 0;
    const double pos = q * static_cast<double>(ns.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, ns.size() - 1);
    return ns[lo] + (ns[hi] - ns[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One execution of `row`; returns the nanoseconds of its timed part.
double RunOnce(const Row& row, Database* db, int axes_docs,
               const Trial& micro, Measured* m) {
  m->ok = true;
  m->error.clear();
  std::chrono::steady_clock::time_point t0;
  double ns = 0;
  auto stop = [&] { ns = SecondsSince(t0) * 1e9; };
  Status status;
  switch (row.timed) {
    case Timed::kMicro:
      t0 = std::chrono::steady_clock::now();
      m->rows = micro();
      stop();
      return ns;
    case Timed::kLoad: {
      Database fresh;
      t0 = std::chrono::steady_clock::now();
      status = SetupPaperSchema(&fresh);
      for (size_t i = 0; status.ok() && i < row.ddl.size(); ++i) {
        status = fresh.ExecuteSql(row.ddl[i]).status();
      }
      if (status.ok()) status = LoadOrders(&fresh, row.orders);
      stop();
      m->rows = OrderIndexEntries(&fresh);
      break;
    }
    case Timed::kBuild: {
      Database fresh;
      status = LoadWorkload(row, axes_docs, &fresh);
      if (status.ok()) {
        t0 = std::chrono::steady_clock::now();
        auto rs = fresh.ExecuteSql(row.text, row.options);
        stop();
        status = rs.status();
        if (rs.ok()) m->stats = rs->stats;
      }
      m->rows = OrderIndexEntries(&fresh);
      break;
    }
    case Timed::kQuery:
      if (IsSql(row.text)) {
        t0 = std::chrono::steady_clock::now();
        auto rs = db->ExecuteSql(row.text, row.options);
        stop();
        status = rs.status();
        if (rs.ok()) {
          m->rows = static_cast<long long>(rs->rows.size());
          m->digest = std::hash<std::string>{}(rs->ToString(SIZE_MAX));
          m->stats = rs->stats;
        }
      } else {
        t0 = std::chrono::steady_clock::now();
        auto r = db->ExecuteXQuery(row.text, row.options);
        stop();
        status = r.status();
        if (r.ok()) {
          std::string all;
          for (const std::string& item : r->rows) {
            all += item;
            all += '\n';
          }
          m->rows = static_cast<long long>(r->rows.size());
          m->digest = std::hash<std::string>{}(all);
          m->stats = r->stats;
          m->plan = r->plan;
        }
      }
      break;
  }
  if (!status.ok()) {
    m->ok = false;
    m->error = status.ToString();
  }
  return ns;
}

std::string LintCodes(Database* db, const std::string& text) {
  auto report = IsSql(text) ? db->LintSql(text) : db->LintXQuery(text);
  std::string out = "[";
  if (report.ok()) {
    for (const Diagnostic& d : report->diagnostics) {
      if (out.size() > 1) out += ", ";
      out += '"';
      out += DiagCodeName(d.code);
      out += '"';
    }
  }
  return out + "]";
}

/// Timed runs per row, after one warm-up run.
constexpr int kTrials = 7;

/// Warm-up, then kTrials timed runs; the outcome is the last trial's.
Measured Measure(const Row& row, Database* db, int axes_docs) {
  ThreadPool::SetGlobalThreads(static_cast<size_t>(row.threads));
  const Trial micro = row.micro ? row.micro() : Trial();
  Measured m;
  for (int i = 0; i <= kTrials; ++i) {
    const double ns = RunOnce(row, db, axes_docs, micro, &m);
    if (i > 0) m.ns.push_back(ns);
  }
  std::sort(m.ns.begin(), m.ns.end());
  if (row.timed == Timed::kQuery) m.lint = LintCodes(db, row.text);
  if (!row.plan.empty() && IsSql(row.text)) {
    // An SQL result carries no plan text; EXPLAIN plans the same statement.
    auto plan = db->ExplainSql(row.text);
    if (plan.ok()) m.plan = *plan;
  }
  return m;
}

// ---- Gates and the report -------------------------------------------------

// The build's shape, from tools/CMakeLists.txt: timing gates are skipped
// when the build is sanitized.
constexpr const char* kSanitizer = XQBENCH_SANITIZER;
const bool kSanitized = std::string(kSanitizer) != "off";

struct Gate {
  std::string kind;
  std::string subject;
  std::string verdict;  // pass, FAIL, skip or report
  std::string detail;
};

class Gates {
 public:
  void Add(const std::string& kind, const std::string& subject, bool pass,
           const std::string& detail) {
    Record(kind, subject, pass ? "pass" : "FAIL", detail);
  }
  void Record(const std::string& kind, const std::string& subject,
              const std::string& verdict, const std::string& detail) {
    std::printf("%-6s %-7s %s: %s\n", verdict.c_str(), kind.c_str(),
                subject.c_str(), detail.c_str());
    if (verdict == "FAIL") ++failed_;
    gates_.push_back({kind, subject, verdict, detail});
  }
  int failed() const { return failed_; }
  const std::vector<Gate>& all() const { return gates_; }

 private:
  std::vector<Gate> gates_;
  int failed_ = 0;
};

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

size_t CollectionSize(const Row& row, int axes_docs) {
  if (row.shape != Shape::kOrders) return static_cast<size_t>(axes_docs);
  return static_cast<size_t>(row.text.find("CUSTOMER.CDOC") !=
                                     std::string::npos
                                 ? row.orders.num_customers
                                 : row.orders.num_orders);
}

void RowGates(const Row& row, const Measured& m, int axes_docs,
              Gates* gates) {
  if (!row.error.empty()) {
    gates->Add("outcome", row.name,
               !m.ok && m.error.find(row.error) != std::string::npos,
               m.ok ? std::to_string(m.rows) + " rows, expected error " +
                          row.error
                    : m.error);
  } else {
    gates->Add("outcome", row.name, m.ok && m.rows == row.rows,
               m.ok ? std::to_string(m.rows) + " rows, expected " +
                          std::to_string(row.rows)
                    : m.error);
  }
  const long long probed = m.stats.index_entries_probed;
  if (row.claim == Claim::kProbe) {
    gates->Add("claim", row.name, probed > 0,
               "index probe: index_entries_probed " + std::to_string(probed));
  } else if (row.claim == Claim::kScan) {
    const size_t n = CollectionSize(row, axes_docs);
    gates->Add("claim", row.name,
               probed == 0 && m.stats.rows_scanned >= static_cast<long long>(n),
               "scan: index_entries_probed " + std::to_string(probed) +
                   ", rows_scanned " + std::to_string(m.stats.rows_scanned) +
                   " of " + std::to_string(n));
  }
  for (const Check& c : row.checks) {
    const long long v = m.stats.*c.counter.field;
    gates->Add("check", row.name, v >= c.min && v <= c.max,
               std::string(c.counter.name) + " " + std::to_string(v) +
                   (c.max == 0 ? " (must be 0)" : " (must be > 0)"));
  }
  if (!row.plan.empty()) {
    gates->Add("check", row.name, m.plan.find(row.plan) != std::string::npos,
               "plan contains \"" + row.plan + "\"");
  }
}

void PairGates(const Row& row, const Measured& m, const Pair& p,
               const Row& other, const Measured& o, unsigned cores,
               Gates* gates) {
  const std::string subject = row.name + " vs " + other.name;
  if (row.text == other.text && row.timed == Timed::kQuery) {
    const bool same = m.ok && o.ok && m.digest == o.digest;
    gates->Add("rows", subject, same,
               same ? "identical rows"
                    : "rows differ (" + std::to_string(m.rows) + " vs " +
                          std::to_string(o.rows) + ")");
  }
  if (p.counter.field != nullptr) {
    const long long a = m.stats.*p.counter.field;
    const long long b = o.stats.*p.counter.field;
    gates->Add("reads", subject, a < b,
               std::string(p.counter.name) + " " + std::to_string(a) +
                   " < " + std::to_string(b));
  }
  const double ratio = o.Median() / std::max(m.Median(), 1.0);
  const std::string detail = Fmt("%.2fx (medians %.0f vs %.0f ns)", ratio,
                                 m.Median(), o.Median());
  const int threads = std::max(row.threads, other.threads);
  if (p.floor <= 0) {
    gates->Record("speed", subject, "report", detail);
  } else if (kSanitized) {
    gates->Record("speed", subject, "skip",
                  detail + "; sanitizer build " + kSanitizer);
  } else if (row.threads != other.threads &&
             cores < static_cast<unsigned>(threads)) {
    gates->Record("speed", subject, "skip",
                  detail + "; " + std::to_string(cores) + " cores < " +
                      std::to_string(threads) + " threads");
  } else {
    gates->Add("speed", subject, ratio >= p.floor,
               detail + Fmt(", floor %.1fx", p.floor));
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string SwitchName(const ExecOptions& o) {
  std::string s;
  auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!s.empty()) s += '+';
    s += name;
  };
  add(o.force_scan, "force_scan");
  add(o.disable_cache, "disable_cache");
  add(o.disable_structural, "disable_structural");
  add(o.disable_batch, "disable_batch");
  add(o.disable_static, "disable_static");
  return s.empty() ? "default" : s;
}

std::string Report(const std::vector<Row>& table,
                   const std::map<std::string, Measured>& measured,
                   const Gates& gates, unsigned cores, bool smoke) {
  std::string json = "{\n  \"tool\": \"xqbench\",\n";
  json += "  \"host\": {\"cores\": " + std::to_string(cores) +
          ", \"build_type\": " + JsonString(XQBENCH_BUILD_TYPE) +
          ", \"compiler\": " + JsonString(XQBENCH_COMPILER) +
          ", \"sanitizer\": " + JsonString(kSanitizer) + "},\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") +
          ", \"trials\": " + std::to_string(kTrials) + ",\n  \"rows\": [";
  bool first = true;
  for (const Row& row : table) {
    auto it = measured.find(row.name);
    if (it == measured.end()) continue;
    const Measured& m = it->second;
    json += first ? "\n" : ",\n";
    first = false;
    json += "    {\"name\": " + JsonString(row.name) +
            ", \"text\": " + JsonString(row.text) +
            ", \"switch\": " + JsonString(SwitchName(row.options)) +
            ", \"threads\": " + std::to_string(row.threads) +
            Fmt(", \"median_ns\": %.0f, \"min_ns\": %.0f", m.Median(),
                m.Quantile(0)) +
            Fmt(", \"q1_ns\": %.0f, \"q3_ns\": %.0f", m.Quantile(0.25),
                m.Quantile(0.75)) +
            ", \"rows\": " + std::to_string(m.rows) +
            ", \"error\": " + JsonString(m.error) +
            ", \"counters\": " + m.stats.ToJson() + ", \"lint\": " + m.lint +
            "}";
  }
  json += "\n  ],\n  \"gates\": [";
  first = true;
  for (const Gate& g : gates.all()) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    {\"gate\": " + JsonString(g.kind) +
            ", \"subject\": " + JsonString(g.subject) +
            ", \"verdict\": " + JsonString(g.verdict) +
            ", \"detail\": " + JsonString(g.detail) + "}";
  }
  json += "\n  ],\n  \"failed\": " + std::to_string(gates.failed()) + "\n}\n";
  return json;
}

int Usage() {
  std::fprintf(stderr,
               "usage: xqbench [--out FILE] [--smoke] [--only EXP[,EXP...]]\n");
  return 2;
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_xqbench.json";
  bool smoke = false;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if ((arg == "--out" || arg == "--only") && i + 1 < argc) {
      const std::string value = argv[++i];
      if (arg == "--out") {
        out_path = value;
      } else {
        only = SplitString(value, ',');
      }
    } else {
      return Usage();
    }
  }
  const int axes_docs = AxesDocs(smoke);
  const unsigned cores = std::thread::hardware_concurrency();
  const auto started = std::chrono::steady_clock::now();
  // Every thread count is the table's: the pool never sizes itself from
  // XQDB_THREADS.
  ThreadPool::SetGlobalThreads(1);

  std::vector<Row> table = Table(smoke);
  auto selected = [&](const Row& row) {
    const std::string exp = row.name.substr(0, row.name.find('/'));
    return only.empty() ||
           std::find(only.begin(), only.end(), exp) != only.end();
  };
  // Rows sharing a workload and DDL set run against one database, loaded
  // once and freed before the next group loads: peak memory is the
  // largest group's, not the sum.
  std::vector<std::pair<std::string, std::vector<const Row*>>> groups;
  for (const Row& row : table) {
    if (!selected(row)) continue;
    const std::string key = GroupKey(row);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == key; });
    if (it == groups.end()) {
      groups.push_back({key, {}});
      it = groups.end() - 1;
    }
    it->second.push_back(&row);
  }
  if (groups.empty()) return Usage();  // --only named no experiment
  std::map<std::string, Measured> measured;
  for (const auto& [key, rows] : groups) {
    std::unique_ptr<Database> db;
    Status status;
    if (rows.front()->timed == Timed::kQuery) {
      db = std::make_unique<Database>();
      status = LoadWorkload(*rows.front(), axes_docs, db.get());
    }
    for (const Row* row : rows) {
      Measured m;
      if (status.ok()) {
        m = Measure(*row, db.get(), axes_docs);
      } else {
        m.error = "workload load failed: " + status.ToString();
      }
      std::printf("%-52s %12.1f us  [%.1f, %.1f]  %lld rows%s\n",
                  row->name.c_str(), m.Median() / 1e3,
                  m.Quantile(0.25) / 1e3, m.Quantile(0.75) / 1e3, m.rows,
                  m.ok ? "" : ("  " + m.error).c_str());
      measured[row->name] = std::move(m);
    }
  }
  Gates gates;
  auto find = [&](const std::string& name) -> const Row* {
    for (const Row& row : table) {
      if (row.name == name) return &row;
    }
    return nullptr;
  };
  for (const Row& row : table) {
    auto it = measured.find(row.name);
    if (it == measured.end()) continue;
    RowGates(row, it->second, axes_docs, &gates);
    for (const Pair& p : row.pairs) {
      const Row* other = find(p.against);
      auto ot = measured.find(p.against);
      if (other == nullptr || ot == measured.end()) {
        gates.Record("pair", row.name + " vs " + p.against, "skip",
                     "partner not run");
        continue;
      }
      PairGates(row, it->second, p, *other, ot->second, cores, &gates);
    }
  }
  for (const auto& [prefix, against] : kSweeps) {
    std::map<int, double> gaps;  // collection size -> paired gap
    for (const auto& [name, m] : measured) {
      if (name.rfind(std::string(prefix) + "/", 0) != 0) continue;
      const std::string n = name.substr(name.rfind('/') + 1);
      auto o = measured.find(std::string(against) + "/" + n);
      if (o != measured.end()) {
        gaps[std::stoi(n)] = o->second.Median() - m.Median();
      }
    }
    if (gaps.size() < 2) {
      gates.Record("sweep", prefix, "skip", "fewer than two sizes run");
      continue;
    }
    const auto& [small, small_gap] = *gaps.begin();
    const auto& [large, large_gap] = *gaps.rbegin();
    const std::string subject = Sized(prefix, small) + " -> " +
                                std::to_string(large);
    const std::string detail =
        Fmt("gap %.0f -> %.0f ns", small_gap, large_gap);
    if (kSanitized) {
      gates.Record("sweep", subject, "skip",
                   detail + "; sanitizer build " + kSanitizer);
    } else {
      gates.Add("sweep", subject, large_gap > small_gap, detail);
    }
  }

  const std::string json =
      Report(table, measured, gates, cores, smoke);
  if (Status st = WriteFileAtomic(out_path, json); !st.ok()) {
    std::fprintf(stderr, "xqbench: cannot write %s: %s\n", out_path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("xqbench: %zu rows, %zu gates, %d failed, %.1f s; wrote %s\n",
              measured.size(), gates.all().size(), gates.failed(),
              SecondsSince(started), out_path.c_str());
  return gates.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xqdb

int main(int argc, char** argv) { return xqdb::Run(argc, argv); }
