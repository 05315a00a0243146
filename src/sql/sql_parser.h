#ifndef XQDB_SQL_SQL_PARSER_H_
#define XQDB_SQL_SQL_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "sql/sql_ast.h"

namespace xqdb {

/// Parses one SQL statement of the xqdb SQL/XML subset:
///
///   CREATE TABLE t (col TYPE, ...)
///   CREATE INDEX i ON t(col) [USING XMLPATTERN '...' AS [SQL] type]
///                        (without XMLPATTERN: parses, fails Unsupported)
///   INSERT INTO t VALUES (lit, ...) [, (lit, ...)]*
///   SELECT items FROM refs [WHERE cond]
///   VALUES (expr [, expr]*)          -- sugar for a one-row SELECT
///
/// with XMLQUERY / XMLEXISTS / XMLTABLE / XMLCAST. Keywords are
/// case-insensitive; identifiers are uppercased (quoted or not).
Result<SqlStatement> ParseSql(std::string_view text);

}  // namespace xqdb

#endif  // XQDB_SQL_SQL_PARSER_H_
