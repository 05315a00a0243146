#ifndef XQDB_COMMON_STR_UTIL_H_
#define XQDB_COMMON_STR_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xqdb {

/// Removes leading and trailing XML whitespace (space, tab, CR, LF).
std::string_view TrimWhitespace(std::string_view s);

/// True if `s` consists only of XML whitespace (or is empty).
bool IsAllWhitespace(std::string_view s);

/// Case-insensitive ASCII equality (SQL keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Uppercases ASCII letters (SQL identifier normalization).
std::string ToUpperAscii(std::string_view s);

/// Splits on a delimiter character; does not trim pieces.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Parses the full string as an xs:double-style number (supports scientific
/// notation, INF, -INF, NaN). Returns nullopt if the string (after trimming
/// whitespace) is not a valid number. Used for tolerant index casts and
/// untypedAtomic-to-double conversions.
std::optional<double> ParseXsDouble(std::string_view s);

/// Parses the full trimmed string as an xs:integer. Returns nullopt on
/// syntax error or overflow.
std::optional<long long> ParseXsInteger(std::string_view s);

/// Canonical xs:double formatting: integral doubles print without ".0"
/// exponent clutter (matches how the paper's examples print 99.50 etc.).
std::string FormatXsDouble(double d);

/// Formats an integer.
std::string FormatInt(long long v);

/// Result of parsing one environment-knob integer: the value to use plus
/// what happened on the way there. `ok` is false when the text was not a
/// clean base-10 integer (empty, trailing garbage, overflow) and the
/// fallback was substituted; `clamped` is true when the text parsed but lay
/// outside [min, max] and was pinned to the nearer bound.
struct ParsedEnvInt {
  long long value = 0;
  bool ok = true;
  bool clamped = false;
};

/// Strict checked parse for untrusted knob text: optional surrounding
/// whitespace, an optional sign, digits, nothing else. "12 threads", "",
/// "0x10" and out-of-long-long values all fail (→ fallback). Pure and
/// deterministic — the testable core of ParseEnvInt.
ParsedEnvInt ParseEnvIntText(std::string_view text, long long min_value,
                             long long max_value, long long fallback);

/// Reads the environment variable `name` and parses it with
/// ParseEnvIntText. Unset → fallback silently. Malformed or clamped →
/// the value ParseEnvIntText chose, plus a one-time (per knob name)
/// diagnostic through the warn hook below (default: one stderr line).
/// Every XQDB_* integer knob goes through here so garbage in the
/// environment degrades to a warning, never a crash or a silent surprise.
long long ParseEnvInt(const char* name, long long min_value,
                      long long max_value, long long fallback);

/// Reads a raw (string-valued) environment knob; nullptr when unset. The
/// single sanctioned `getenv` site outside ParseEnvInt: xqinvariant
/// XQI005 flags direct std::getenv calls elsewhere in src/, so every knob
/// read is greppable and funnels through common/ where future validation
/// or snapshotting can be added in one place.
const char* GetEnvRaw(const char* name);

/// Installs the process-wide sink for ParseEnvInt diagnostics (nullptr
/// restores stderr). The observability layer installs a hook that also
/// bumps an `env.parse_errors` counter; common/ cannot depend on metrics
/// directly. `detail` is a short human-readable description including the
/// offending text and the substituted value.
void SetEnvParseWarnHook(void (*hook)(const char* name, const char* detail));

}  // namespace xqdb

#endif  // XQDB_COMMON_STR_UTIL_H_
