#include "common/str_util.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>

#include "common/mutex.h"

namespace xqdb {

namespace {

bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

}  // namespace

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && IsXmlSpace(s[b])) ++b;
  size_t e = s.size();
  while (e > b && IsXmlSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!IsXmlSpace(c)) return false;
  }
  return true;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToUpperAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = std::toupper(static_cast<unsigned char>(c));
  return out;
}

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      parts.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::optional<double> ParseXsDouble(std::string_view s) {
  std::string_view t = TrimWhitespace(s);
  if (t.empty()) return std::nullopt;
  // The xs:double lexical space names the specials exactly INF, -INF and
  // NaN (case-sensitive); "+INF", "inf", "nan" and friends are not in it.
  if (t == "INF") return std::numeric_limits<double>::infinity();
  if (t == "-INF") return -std::numeric_limits<double>::infinity();
  if (t == "NaN") return std::numeric_limits<double>::quiet_NaN();
  // strtod accepts hex floats and "inf"/"nan" spellings that xs:double does
  // not; reject any alphabetic character other than 'e'/'E'.
  for (char c : t) {
    if (std::isalpha(static_cast<unsigned char>(c)) && c != 'e' && c != 'E') {
      return std::nullopt;
    }
  }
  std::string buf(t);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    // xs:double overflow maps to +/-INF.
    return v > 0 ? std::numeric_limits<double>::infinity()
                 : -std::numeric_limits<double>::infinity();
  }
  return v;
}

std::optional<long long> ParseXsInteger(std::string_view s) {
  std::string_view t = TrimWhitespace(s);
  if (t.empty()) return std::nullopt;
  std::string buf(t);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  if (errno == ERANGE) return std::nullopt;
  return v;
}

std::string FormatXsDouble(double d) {
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0 ? "INF" : "-INF";
  // Integral values within long-long range print without a decimal point,
  // matching XPath fn:string() for integral doubles (e.g. "100").
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    return FormatInt(static_cast<long long>(d));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", d);
  return buf;
}

std::string FormatInt(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

ParsedEnvInt ParseEnvIntText(std::string_view text, long long min_value,
                             long long max_value, long long fallback) {
  ParsedEnvInt out;
  std::string_view t = TrimWhitespace(text);
  long long v = 0;
  bool parsed = false;
  if (!t.empty()) {
    std::string buf(t);
    errno = 0;
    char* end = nullptr;
    v = std::strtoll(buf.c_str(), &end, 10);
    parsed = end == buf.c_str() + buf.size() && errno != ERANGE;
  }
  if (!parsed) {
    out.ok = false;
    out.value = fallback;
    return out;
  }
  if (v < min_value) {
    out.clamped = true;
    v = min_value;
  } else if (v > max_value) {
    out.clamped = true;
    v = max_value;
  }
  out.value = v;
  return out;
}

namespace {

std::atomic<void (*)(const char*, const char*)> g_env_warn_hook{nullptr};

void WarnEnvParse(const char* name, const std::string& detail) {
  // One warning per knob name per process: a bad value in the environment
  // would otherwise repeat on every lazy read site. Leaked (like the set)
  // so a static-destruction-order race cannot touch a dead mutex; released
  // before the hook runs — the hook reaches into the metrics registry.
  static Mutex* warned_mu = new Mutex("env.warn", LockRank::kEnvWarn);
  static std::set<std::string>* warned = new std::set<std::string>;
  {
    MutexLock lock(*warned_mu);
    if (!warned->insert(name).second) return;
  }
  if (auto* hook = g_env_warn_hook.load(std::memory_order_acquire)) {
    hook(name, detail.c_str());
    return;
  }
  std::fprintf(stderr, "xqdb: %s: %s\n", name, detail.c_str());
}

}  // namespace

long long ParseEnvInt(const char* name, long long min_value,
                      long long max_value, long long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  ParsedEnvInt parsed = ParseEnvIntText(raw, min_value, max_value, fallback);
  if (!parsed.ok) {
    WarnEnvParse(name, std::string("ignoring malformed value \"") + raw +
                           "\" (expected an integer); using " +
                           FormatInt(parsed.value));
  } else if (parsed.clamped) {
    WarnEnvParse(name, std::string("value ") + raw + " outside [" +
                           FormatInt(min_value) + ", " + FormatInt(max_value) +
                           "]; clamped to " + FormatInt(parsed.value));
  }
  return parsed.value;
}

const char* GetEnvRaw(const char* name) { return std::getenv(name); }

void SetEnvParseWarnHook(void (*hook)(const char* name, const char* detail)) {
  g_env_warn_hook.store(hook, std::memory_order_release);
}

}  // namespace xqdb
