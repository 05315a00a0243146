// DELETE FROM with synchronous index maintenance: tombstoned documents
// vanish from collection scans, index probes and SQL results alike.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"

namespace xqdb {
namespace {

class DeleteFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    Exec("CREATE INDEX li_price ON orders(orddoc) "
         "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
    for (int i = 0; i < 10; ++i) {
      Exec("INSERT INTO orders VALUES (" + std::to_string(i) +
           ", '<order><custid>" + std::to_string(i) +
           "</custid><lineitem price=\"" + std::to_string(100 * i) +
           "\"/></order>')");
    }
  }
  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << " => " << rs.status().ToString();
  }
  size_t Count(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() ? rs->rows.size() : 0;
  }
  Database db_;
};

TEST_F(DeleteFixture, DeleteWithRelationalPredicate) {
  EXPECT_EQ(Count("SELECT ordid FROM orders"), 10u);
  Exec("DELETE FROM orders WHERE ordid >= 5");
  EXPECT_EQ(Count("SELECT ordid FROM orders"), 5u);
  // Deleting again is a no-op.
  Exec("DELETE FROM orders WHERE ordid >= 5");
  EXPECT_EQ(Count("SELECT ordid FROM orders"), 5u);
}

TEST_F(DeleteFixture, DeleteMaintainsXmlIndex) {
  const std::string q =
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 500]";
  auto before = db_.ExecuteXQuery(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 4u);  // prices 600..900
  EXPECT_EQ(before->stats.index_docs_returned, 4);

  Exec("DELETE FROM orders WHERE XMLEXISTS("
       "'$o//lineitem[@price > 700]' passing orddoc as \"o\")");
  auto after = db_.ExecuteXQuery(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), 2u);  // 600, 700 remain
  // The index was maintained: the probe itself admits only live rows.
  EXPECT_EQ(after->stats.index_docs_returned, 2);

  auto table = db_.catalog().GetTable("ORDERS");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->live_row_count(), 8u);
  EXPECT_EQ(table.value()->row_count(), 10u);  // slots stay
}

TEST_F(DeleteFixture, DeleteAllRows) {
  Exec("DELETE FROM orders");
  EXPECT_EQ(Count("SELECT ordid FROM orders"), 0u);
  auto r = db_.ExecuteXQuery("db2-fn:xmlcolumn('ORDERS.ORDDOC')//order");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(DeleteFixture, InsertAfterDeleteGetsFreshRowId) {
  Exec("DELETE FROM orders WHERE ordid = 0");
  Exec("INSERT INTO orders VALUES (100, "
       "'<order><lineitem price=\"950\"/></order>')");
  EXPECT_EQ(Count("SELECT ordid FROM orders"), 10u);
  auto r = db_.ExecuteXQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 940]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(DeleteFixture, RelationalIndexMaintained) {
  // No plan reads a relational index, so CREATE INDEX without XMLPATTERN
  // is rejected; DELETE and SELECT on the scalar column scan.
  auto rel = db_.ExecuteSql("CREATE INDEX ord_rel ON orders(ordid)");
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kUnsupported);
  Exec("DELETE FROM orders WHERE ordid = 3");
  EXPECT_EQ(Count("SELECT ordid FROM orders WHERE ordid = 3"), 0u);
  EXPECT_EQ(Count("SELECT ordid FROM orders WHERE ordid = 4"), 1u);
}

TEST_F(DeleteFixture, DeleteThatRaisesOnAProbedRowDeletesNothing) {
  // The li_price probe admits prices 600..900; re-applying the WHERE to
  // them raises (a 3-digit price does not fit VARCHAR(2)). The DELETE
  // fails with the error a scan reports and stamps no tombstone.
  const std::string del =
      "DELETE FROM orders WHERE XMLEXISTS("
      "'$o//lineitem[@price > 500]' passing orddoc as \"o\") AND "
      "XMLCAST(XMLQUERY('$o//lineitem/@price' passing orddoc as \"o\") "
      "AS VARCHAR(2)) = 'x'";
  auto probed = db_.ExecuteSql(del);
  ASSERT_FALSE(probed.ok());
  EXPECT_NE(probed.status().message().find("exceeds VARCHAR(2)"),
            std::string::npos)
      << probed.status().ToString();
  ExecOptions scan;
  scan.force_scan = true;
  auto scanned = db_.ExecuteSql(del, scan);
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(probed.status().ToString(), scanned.status().ToString());
  EXPECT_EQ(Count("SELECT ordid FROM orders"), 10u);
}

TEST_F(DeleteFixture, DeleteFromMissingTableFails) {
  auto rs = db_.ExecuteSql("DELETE FROM nope");
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace xqdb
