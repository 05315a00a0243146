// Order analytics: the paper's §3.2/§3.3 scenarios end to end — SQL/XML
// query functions, XMLTABLE shredding, and XML-to-relational joins, with
// EXPLAIN output showing which formulations keep indexes eligible.

#include <cstdio>
#include <string>

#include "core/database.h"
#include "workload/generator.h"

namespace {

xqdb::Database* g_db = nullptr;

void Run(const char* title, const std::string& sql) {
  std::printf("=== %s ===\n%s\n", title, sql.c_str());
  auto plan = g_db->ExplainSql(sql);
  if (plan.ok()) std::printf("plan:\n%s", plan.value().c_str());
  auto rs = g_db->ExecuteSql(sql);
  if (!rs.ok()) {
    std::printf("error: %s\n\n", rs.status().ToString().c_str());
    return;
  }
  std::printf("%zu rows; first rows:\n%s\n", rs->rows.size(),
              rs->ToString(3).c_str());
}

}  // namespace

int main() {
  xqdb::Database db;
  g_db = &db;
  xqdb::OrdersWorkloadConfig config;
  config.num_orders = 300;
  if (auto s = xqdb::LoadPaperWorkload(&db, config); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  (void)db.ExecuteSql(
      "CREATE INDEX li_price ON orders(orddoc) "
      "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");

  // Query 5: XMLQUERY in the SELECT list — returns a row per order, empty
  // sequences included; not index eligible.
  Run("Query 5 (XMLQuery in select list; no filtering)",
      "SELECT XMLQUERY('$order//lineitem[@price > 900]' "
      "passing orddoc as \"order\") FROM orders");

  // Query 8: XMLEXISTS in WHERE — filters rows, index eligible.
  Run("Query 8 (XMLExists in where; index eligible)",
      "SELECT ordid, orddoc FROM orders "
      "WHERE XMLEXISTS('$order//lineitem[@price > 900]' "
      "passing orddoc as \"order\")");

  // Query 9: the boolean-XMLEXISTS trap — returns every row.
  Run("Query 9 (boolean inside XMLExists; returns ALL rows)",
      "SELECT ordid FROM orders "
      "WHERE XMLEXISTS('$order//lineitem/@price > 900' "
      "passing orddoc as \"order\")");

  // Query 11: XMLTABLE with the predicate in the row producer.
  Run("Query 11 (XMLTable row-producer predicate; index eligible)",
      "SELECT o.ordid, t.lineitem FROM orders o, "
      "XMLTABLE('$order//lineitem[@price > 900]' "
      "passing o.orddoc as \"order\" "
      "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)");

  // Query 12: the predicate buried in a column path — row per lineitem,
  // NULL price column when it fails; not eligible.
  Run("Query 12 (predicate in XMLTable column path; not eligible)",
      "SELECT o.ordid, t.lineitem, t.price FROM orders o, "
      "XMLTABLE('$order//lineitem' passing o.orddoc as \"order\" "
      "COLUMNS \"lineitem\" XML BY REF PATH '.', "
      "\"price\" DECIMAL(6,3) PATH '@price[. > 900]') as t(lineitem, price)");

  // Query 13: join on the XQuery side (value comparison with the SQL value
  // typed from the relational column).
  Run("Query 13 (join expressed in XQuery)",
      "SELECT p.name, XMLQUERY('$order//lineitem' passing orddoc as "
      "\"order\") FROM products p, orders o "
      "WHERE XMLEXISTS('$order//lineitem/product[id eq $pid]' "
      "passing o.orddoc as \"order\", p.id as \"pid\")");

  return 0;
}
