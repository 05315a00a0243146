// xqinvariant — project-invariant linter for the xqdb C++ tree.
//
// Scans the given directories (default: src/ tools/) for violations of
// whole-process invariants that the type system cannot express and code
// review keeps missing. Stable finding codes:
//
//   XQI001  raw std::mutex / std::lock_guard / std::unique_lock /
//           std::shared_mutex / std::condition_variable / pthread_*
//           synchronization outside common/mutex.h — every lock must go
//           through the annotated, rank-checked wrappers
//   XQI002  Mutex/SharedMutex constructed without a (name, rank) pair
//           from the central hierarchy table (analysis/lock_order.h)
//   XQI003  lock acquired in a header file — acquisition sites live in
//           .cc files so the hierarchy is auditable translation unit by
//           translation unit (common/mutex.h itself is the one sanctioned
//           home of the locking primitives)
//   XQI004  callback/sink/hook invoked while provably holding a lock in
//           the same scope — user code under an engine lock re-enters the
//           engine sooner or later (per-file brace-scope scan; CamelCase
//           method names are not flagged, only lowercase hook-shaped
//           identifiers)
//   XQI005  getenv outside the checked accessors in common/str_util.cc
//           (ParseEnvInt / GetEnvRaw) — every knob read goes through the
//           funnel that warns on garbage instead of mis-parsing it
//   XQI006  a NormStep built outside xpath/pattern.cc (the index-pattern
//           parser) and xquery/ast.cc (AppendNormStep, the one translation
//           of query path steps) — a new copy of the step translation
//           drifts from the other users of Definition 1's algebra
//
// Usage: xqinvariant [--json] DIR...
// Exit status: 0 = clean, 1 = findings, 2 = usage/IO error.
//
// Deliberately a text-level scanner (like the xqcheck shell drivers, it
// must run on a box with no clang): comments and string/char literals are
// stripped before matching, so a mention of std::mutex in a comment — or
// in this very file's string tables — does not fire.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string code;
  std::string file;
  int line = 0;
  std::string message;
};

/// Replaces comments and string/char literal *contents* with spaces,
/// keeping line structure (newlines survive) so finding line numbers stay
/// exact. Handles //, /* */, "..." with escapes, '...' with escapes, and
/// R"delim(...)delim" raw strings.
std::string StripCommentsAndStrings(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  size_t i = 0;
  size_t n = in.size();
  auto keep_ws = [&](char c) { out.push_back(c == '\n' ? '\n' : ' '); };
  while (i < n) {
    char c = in[i];
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      while (i < n && in[i] != '\n') keep_ws(in[i]), ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      keep_ws(in[i]), ++i;
      keep_ws(in[i]), ++i;
      while (i + 1 < n && !(in[i] == '*' && in[i + 1] == '/')) {
        keep_ws(in[i]), ++i;
      }
      if (i + 1 < n) {
        keep_ws(in[i]), ++i;  // '*'
        keep_ws(in[i]), ++i;  // '/'
      }
      continue;
    }
    if (c == 'R' && i + 1 < n && in[i + 1] == '"') {
      // Raw string: R"delim( ... )delim"
      size_t paren = in.find('(', i + 2);
      if (paren != std::string::npos && paren - (i + 2) <= 16) {
        std::string delim = in.substr(i + 2, paren - (i + 2));
        std::string closer = ")" + delim + "\"";
        size_t end = in.find(closer, paren + 1);
        if (end != std::string::npos) {
          for (size_t j = i; j < end + closer.size(); ++j) keep_ws(in[j]);
          i = end + closer.size();
          continue;
        }
      }
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      out.push_back(quote);
      ++i;
      while (i < n && in[i] != quote) {
        if (in[i] == '\\' && i + 1 < n) {
          keep_ws(in[i]), ++i;
        }
        if (i < n) keep_ws(in[i]), ++i;
      }
      if (i < n) {
        out.push_back(quote);
        ++i;
      }
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Whole-token occurrence of `needle` in `line` (no identifier character
/// on either side).
bool ContainsToken(const std::string& line, const char* needle) {
  size_t len = std::strlen(needle);
  size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    bool right_ok =
        pos + len >= line.size() || !IsIdentChar(line[pos + len]);
    // "std::mutex" as a token: allow "::" on the left of "mutex" etc. —
    // needles below always spell the full qualified name, so the char
    // before is never ':'.
    if (left_ok && right_ok) return true;
    pos += len;
  }
  return false;
}

bool EndsWith(const std::string& s, const char* suffix) {
  size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

bool IsHeaderFile(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

/// The one file allowed to touch raw std synchronization primitives and
/// to define the lock-acquiring wrappers.
bool IsMutexWrapperHeader(const std::string& path) {
  return EndsWith(path, "common/mutex.h");
}

/// The sanctioned getenv funnel (XQI005).
bool IsEnvFunnel(const std::string& path) {
  return EndsWith(path, "common/str_util.cc");
}

/// The two files allowed to construct NormStep values (XQI006).
bool IsNormStepHome(const std::string& path) {
  return EndsWith(path, "xpath/pattern.cc") || EndsWith(path, "xquery/ast.cc");
}

/// XQI006: the line builds a NormStep — a braced or parenthesized
/// construction, or a declaration of a NormStep value. References,
/// pointers, template arguments and the struct's own declaration do not
/// match.
bool BuildsNormStep(const std::string& line) {
  static const char kName[] = "NormStep";
  const size_t len = sizeof(kName) - 1;
  size_t pos = 0;
  while ((pos = line.find(kName, pos)) != std::string::npos) {
    const size_t begin = pos;
    pos += len;
    if ((begin > 0 && IsIdentChar(line[begin - 1])) ||
        (pos < line.size() && IsIdentChar(line[pos]))) {
      continue;
    }
    if (begin >= 7 && line.compare(begin - 7, 7, "struct ") == 0) continue;
    const size_t next = line.find_first_not_of(' ', pos);
    if (next == std::string::npos) continue;
    const char c = line[next];
    if (c == '{' || c == '(' || IsIdentChar(c)) return true;
  }
  return false;
}

/// XQI004's hook-shaped identifiers: lowercase names ending in (or equal
/// to) hook/sink/callback/cb, immediately invoked. CamelCase methods
/// (TestSink(), SetEnvParseWarnHook(...)) deliberately do not match.
bool IsHookInvocation(const std::string& line, size_t* col) {
  static const char* kNames[] = {"hook", "sink", "callback", "cb"};
  for (const char* name : kNames) {
    size_t len = std::strlen(name);
    size_t pos = 0;
    while ((pos = line.find(name, pos)) != std::string::npos) {
      size_t end = pos + len;
      bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]) ||
                     line[pos - 1] == '_';
      // The identifier must END at the match (suffix match: warn_hook,
      // trace_sink, on_error_cb) and be all lowercase/underscore back to
      // its start.
      bool right_is_call = end < line.size() && line[end] == '(';
      if (left_ok && right_is_call) {
        size_t start = pos;
        while (start > 0 && IsIdentChar(line[start - 1])) --start;
        bool lower = true;
        for (size_t j = start; j < end; ++j) {
          char c = line[j];
          if (std::isupper(static_cast<unsigned char>(c)) != 0) {
            lower = false;
            break;
          }
        }
        if (lower) {
          *col = start;
          return true;
        }
      }
      pos = end;
    }
  }
  return false;
}

struct ScopeFrame {
  int depth = 0;     // brace depth at which the scoped lock was declared
  int line = 0;      // where
  std::string kind;  // MutexLock / ReaderMutexLock / ...
};

void ScanFile(const std::string& path, std::vector<Finding>* findings) {
  std::ifstream f(path);
  if (!f) {
    findings->push_back({"XQI000", path, 0, "unreadable file"});
    return;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  std::string text = StripCommentsAndStrings(buf.str());

  const bool is_header = IsHeaderFile(path);
  const bool is_wrapper = IsMutexWrapperHeader(path);
  const bool is_env_funnel = IsEnvFunnel(path);
  const bool is_norm_step_home = IsNormStepHome(path);

  // XQI004 state: active scoped-lock frames in this file, tracked by brace
  // depth. Conservative per-file scan — a callback invoked by a function
  // *called* under a lock is out of scope; the runtime detector owns that.
  std::vector<ScopeFrame> lock_scopes;
  int depth = 0;

  std::vector<std::string> all_lines;
  {
    std::istringstream stream(text);
    std::string l;
    while (std::getline(stream, l)) all_lines.push_back(std::move(l));
  }

  for (size_t idx = 0; idx < all_lines.size(); ++idx) {
    const std::string& line = all_lines[idx];
    const int lineno = static_cast<int>(idx) + 1;
    // Constructor calls may wrap, leaving the rank argument on the next
    // line or two; the XQI002 check looks in this window.
    std::string decl_window = line;
    for (size_t k = idx + 1; k < all_lines.size() && k <= idx + 2; ++k) {
      decl_window += ' ';
      decl_window += all_lines[k];
    }

    // ---- XQI001: raw std/pthread synchronization outside the wrapper.
    if (!is_wrapper) {
      static const char* kRaw[] = {
          "std::mutex",      "std::shared_mutex",
          "std::lock_guard", "std::unique_lock",
          "std::scoped_lock", "std::condition_variable",
          "std::condition_variable_any", "std::recursive_mutex",
          "std::timed_mutex", "std::shared_lock",
      };
      for (const char* needle : kRaw) {
        if (ContainsToken(line, needle)) {
          findings->push_back(
              {"XQI001", path, lineno,
               std::string(needle) +
                   " outside common/mutex.h; use the annotated, "
                   "rank-checked wrappers"});
        }
      }
      if (line.find("pthread_mutex") != std::string::npos ||
          line.find("pthread_rwlock") != std::string::npos ||
          line.find("pthread_cond") != std::string::npos) {
        findings->push_back({"XQI001", path, lineno,
                             "pthread synchronization outside "
                             "common/mutex.h"});
      }
    }

    // ---- XQI002: Mutex/SharedMutex constructed without a rank.
    // A declaration like `Mutex mu_;` / `SharedMutex mu_{...}` must carry
    // a LockRank:: argument on the same statement; `make_unique<...Mutex>(`
    // with an immediately-closing paren likewise. (The wrapper header has
    // no default constructor, so this is belt-and-braces at source level —
    // it also catches a future "default-args" regression of the wrapper.)
    if (!is_wrapper) {
      bool declares_mutex =
          (ContainsToken(line, "Mutex") || ContainsToken(line, "SharedMutex")) &&
          line.find("class ") == std::string::npos &&
          line.find("MutexLock") == std::string::npos &&
          decl_window.find("LockRank") == std::string::npos &&
          (line.find("Mutex ") != std::string::npos ||
           line.find("Mutex>") != std::string::npos ||
           line.find("new Mutex") != std::string::npos ||
           line.find("new SharedMutex") != std::string::npos);
      if (declares_mutex) {
        // Declaration-shaped (ends in ; or { without rank) — references,
        // parameters (Mutex& / Mutex*), and member uses don't match.
        bool is_decl =
            line.find("Mutex&") == std::string::npos &&
            line.find("Mutex*") == std::string::npos &&
            line.find("Mutex>&") == std::string::npos &&
            (line.find("Mutex ") != std::string::npos ||
             line.find("new Mutex") != std::string::npos ||
             line.find("new SharedMutex") != std::string::npos ||
             line.find("make_unique<Mutex>") != std::string::npos ||
             line.find("make_unique<SharedMutex>") != std::string::npos);
        if (is_decl) {
          findings->push_back(
              {"XQI002", path, lineno,
               "Mutex constructed without a LockRank from the central "
               "hierarchy table (analysis/lock_order.h)"});
        }
      }
    }

    // ---- XQI003: lock acquired in a header.
    if (is_header && !is_wrapper) {
      static const char* kAcquire[] = {
          "MutexLock",  // also matches Reader/WriterMutexLock
          ".Lock()",    ".ReaderLock()", ".TryLock()",
          "->Lock()",   "->ReaderLock()",
      };
      for (const char* needle : kAcquire) {
        if (line.find(needle) != std::string::npos) {
          // Annotation macros (XQDB_ACQUIRE etc.) and declarations that
          // merely *name* the locker types as members/params are fine;
          // what we flag is an acquisition statement: a scoped-lock
          // variable declaration or a direct .Lock() call.
          bool scoped_decl =
              line.find("MutexLock ") != std::string::npos ||
              line.find("MutexLock(") != std::string::npos;
          bool direct_call = std::strstr(needle, "Lock()") != nullptr;
          if (scoped_decl || direct_call) {
            findings->push_back(
                {"XQI003", path, lineno,
                 "lock acquired in a header; move the body to a .cc file "
                 "so acquisition sites stay auditable"});
            break;
          }
        }
      }
    }

    // ---- XQI004 bookkeeping and check.
    // Frames open when a scoped-lock declaration appears; they close when
    // brace depth drops below the recording depth.
    bool opens_scope =
        line.find("MutexLock lock") != std::string::npos ||
        line.find("MutexLock l(") != std::string::npos ||
        line.find("MutexLock guard") != std::string::npos ||
        line.find("MutexLock elock") != std::string::npos ||
        line.find("MutexLock dlock") != std::string::npos;
    if (opens_scope && !is_header) {
      std::string kind = "MutexLock";
      if (line.find("ReaderMutexLock") != std::string::npos) {
        kind = "ReaderMutexLock";
      } else if (line.find("WriterMutexLock") != std::string::npos) {
        kind = "WriterMutexLock";
      }
      lock_scopes.push_back({depth, lineno, kind});
    }
    if (!lock_scopes.empty()) {
      size_t col = 0;
      if (IsHookInvocation(line, &col)) {
        findings->push_back(
            {"XQI004", path, lineno,
             "callback/sink invoked while holding " +
                 lock_scopes.back().kind + " (acquired line " +
                 std::to_string(lock_scopes.back().line) +
                 "); snapshot it out of the critical section first"});
      }
    }
    for (char c : line) {
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        while (!lock_scopes.empty() && lock_scopes.back().depth >= depth) {
          lock_scopes.pop_back();
        }
      }
    }

    // ---- XQI005: getenv outside the checked funnel.
    if (!is_env_funnel &&
        (ContainsToken(line, "getenv") || ContainsToken(line, "secure_getenv"))) {
      findings->push_back(
          {"XQI005", path, lineno,
           "getenv outside common/str_util.cc; use ParseEnvInt (integer "
           "knobs) or GetEnvRaw (string knobs)"});
    }

    // ---- XQI006: a NormStep constructed outside pattern.cc and ast.cc.
    if (!is_norm_step_home && BuildsNormStep(line)) {
      findings->push_back(
          {"XQI006", path, lineno,
           "NormStep built outside xpath/pattern.cc and xquery/ast.cc; "
           "translate query path steps with AppendNormStep"});
    }
  }
}

void CollectSources(const std::filesystem::path& root,
                    std::vector<std::string>* files) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    files->push_back(root.string());
    return;
  }
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    std::string p = it->path().string();
    if (EndsWith(p, ".cc") || EndsWith(p, ".h") || EndsWith(p, ".hpp")) {
      files->push_back(std::move(p));
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "-h" || arg == "--help") {
      std::fprintf(stderr,
                   "usage: xqinvariant [--json] DIR|FILE...\n"
                   "codes: XQI001 raw mutex, XQI002 unranked Mutex, "
                   "XQI003 lock in header, XQI004 callback under lock, "
                   "XQI005 raw getenv, XQI006 NormStep off the converter\n");
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "xqinvariant: no directories given\n");
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& root : roots) {
    if (!std::filesystem::exists(root)) {
      std::fprintf(stderr, "xqinvariant: no such path: %s\n", root.c_str());
      return 2;
    }
    CollectSources(root, &files);
  }

  std::vector<Finding> findings;
  for (const std::string& file : files) {
    ScanFile(file, &findings);
  }

  if (json) {
    std::string out = "{\"tool\": \"xqinvariant\", \"files_scanned\": " +
                      std::to_string(files.size()) + ", \"findings\": [";
    for (size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) out += ", ";
      out += "{\"code\": \"" + f.code + "\", \"file\": \"" +
             JsonEscape(f.file) + "\", \"line\": " + std::to_string(f.line) +
             ", \"message\": \"" + JsonEscape(f.message) + "\"}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  } else {
    for (const Finding& f : findings) {
      std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.code.c_str(),
                  f.message.c_str());
    }
    std::printf("xqinvariant: %zu file(s), %zu finding(s)\n", files.size(),
                findings.size());
  }
  return findings.empty() ? 0 : 1;
}
