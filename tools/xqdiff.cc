// xqdiff — differential correctness fuzzer for xqdb.
//
// For each seed it generates a workload + index set + query batch + DML
// epoch (src/testing/query_gen.*) and checks these equivalences, its
// oracles (src/testing/differential.*, OracleNames):
//
//   - planner-chosen index plan  vs  forced collection scan
//   - interval structural joins  vs  recursive tree walk
//   - vectorized batch kernels  vs  row-at-a-time filtering
//   - static type/cardinality folds  vs  unoptimized evaluation
//   - compiled-query-cache replay  vs  cold compile (incl. after DML)
//   - parallel execution (N threads)  vs  serial
//   - DML on planned access paths  vs  DML on forced scans
//
// Usage:
//   xqdiff --seed 1..1000 --queries 50          # sweep a seed range
//   xqdiff --seed 7 --queries 200 --threads 8
//   xqdiff --budget-seconds 30 --seed 1..100000 # stop when time is up
//   xqdiff --replay tests/corpus/ne_nan.xqd     # re-run a corpus case
//   xqdiff --replay f.xqd --show-outcomes       # print pinned outcomes
//   xqdiff --seed 1..500 --minimize --corpus-out /tmp/corpus
//
// Exit status: 0 = no divergence, 1 = divergence found, 2 = usage error.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/differential.h"
#include "testing/query_gen.h"

namespace {

struct Args {
  unsigned seed_lo = 1;
  unsigned seed_hi = 1;
  int queries = 20;
  int threads = 4;
  double budget_seconds = 0;  // 0 = no time budget
  bool minimize = false;
  bool verbose = false;
  bool show_outcomes = false;
  std::string replay_path;
  std::string corpus_out;
};

bool ParseSeedRange(const std::string& s, unsigned* lo, unsigned* hi) {
  size_t dots = s.find("..");
  try {
    if (dots == std::string::npos) {
      *lo = *hi = static_cast<unsigned>(std::stoul(s));
    } else {
      *lo = static_cast<unsigned>(std::stoul(s.substr(0, dots)));
      *hi = static_cast<unsigned>(std::stoul(s.substr(dots + 2)));
    }
  } catch (...) {
    return false;
  }
  return *lo <= *hi;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: xqdiff [--seed A[..B]] [--queries N] [--threads N]\n"
      "              [--budget-seconds S] [--minimize] [--corpus-out DIR]\n"
      "              [--replay FILE.xqd] [--show-outcomes] [-v]\n");
  return 2;
}

void PrintDivergence(const xqdb::testing::Divergence& d, unsigned seed) {
  std::fprintf(stderr, "\n=== DIVERGENCE [%s] seed=%u phase=%s ===\n",
               d.oracle.c_str(), seed, d.phase.c_str());
  if (!d.query.text.empty()) {
    std::fprintf(stderr, "%s: %s\n", d.query.is_sql ? "sql" : "xquery",
                 d.query.text.c_str());
  }
  std::fprintf(stderr, "%s\n", d.detail.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (a == "--seed") {
      const char* v = next();
      if (!v || !ParseSeedRange(v, &args.seed_lo, &args.seed_hi))
        return Usage();
    } else if (a == "--queries") {
      const char* v = next();
      if (!v) return Usage();
      args.queries = std::atoi(v);
    } else if (a == "--threads") {
      const char* v = next();
      if (!v) return Usage();
      args.threads = std::atoi(v);
    } else if (a == "--budget-seconds") {
      const char* v = next();
      if (!v) return Usage();
      args.budget_seconds = std::atof(v);
    } else if (a == "--replay") {
      const char* v = next();
      if (!v) return Usage();
      args.replay_path = v;
    } else if (a == "--corpus-out") {
      const char* v = next();
      if (!v) return Usage();
      args.corpus_out = v;
    } else if (a == "--minimize") {
      args.minimize = true;
    } else if (a == "--show-outcomes") {
      args.show_outcomes = true;
    } else if (a == "-v" || a == "--verbose") {
      args.verbose = true;
    } else {
      return Usage();
    }
  }

  xqdb::testing::DiffOptions opt;
  opt.threads = args.threads;
  opt.verbose = args.verbose;

  if (!args.replay_path.empty()) {
    auto sc = xqdb::testing::LoadScenarioFile(args.replay_path);
    if (!sc.ok()) {
      std::fprintf(stderr, "xqdiff: %s\n", sc.status().ToString().c_str());
      return 2;
    }
    if (args.show_outcomes) {
      for (const auto& q : sc->queries) {
        std::string out = xqdb::testing::CanonicalOutcome(*sc, q);
        std::printf("%s: %s\nexpect: ", q.is_sql ? "sql" : "xquery",
                    q.text.c_str());
        for (char c : out) {
          if (c == '\n')
            std::fputs("\\n", stdout);
          else if (c == '\\')
            std::fputs("\\\\", stdout);
          else
            std::fputc(c, stdout);
        }
        std::fputc('\n', stdout);
      }
      return 0;
    }
    auto divs = xqdb::testing::RunScenario(*sc, opt);
    for (const auto& d : divs) PrintDivergence(d, sc->workload.seed);
    std::printf("replay %s: %zu divergence(s)\n", args.replay_path.c_str(),
                divs.size());
    return divs.empty() ? 0 : 1;
  }

  const auto start = std::chrono::steady_clock::now();
  auto out_of_budget = [&]() {
    if (args.budget_seconds <= 0) return false;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= args.budget_seconds;
  };

  long long total_divs = 0;
  unsigned seeds_run = 0;
  int corpus_n = 0;
  for (unsigned seed = args.seed_lo; seed <= args.seed_hi; ++seed) {
    if (out_of_budget()) break;
    xqdb::testing::QueryGenerator gen(seed);
    xqdb::testing::DiffScenario sc = gen.GenerateScenario(args.queries);
    auto divs = xqdb::testing::RunScenario(sc, opt);
    ++seeds_run;
    if (args.verbose || !divs.empty()) {
      std::fprintf(stderr, "seed %u: %zu queries, %zu divergence(s)\n", seed,
                   sc.queries.size(), divs.size());
    }
    if (divs.empty()) continue;
    total_divs += static_cast<long long>(divs.size());
    for (const auto& d : divs) PrintDivergence(d, seed);
    if (args.minimize || !args.corpus_out.empty()) {
      xqdb::testing::DiffScenario small =
          xqdb::testing::MinimizeScenario(sc, opt, divs[0].oracle);
      std::fprintf(stderr, "--- minimized (oracle %s) ---\n%s\n",
                   divs[0].oracle.c_str(),
                   xqdb::testing::SerializeScenario(
                       small, "seed " + std::to_string(seed))
                       .c_str());
      if (!args.corpus_out.empty()) {
        std::string path = args.corpus_out + "/seed" + std::to_string(seed) +
                           "_" + std::to_string(corpus_n++) + ".xqd";
        auto st = xqdb::testing::SaveScenarioFile(
            small, path,
            "minimized from seed " + std::to_string(seed) + ", oracle " +
                divs[0].oracle);
        if (!st.ok()) {
          std::fprintf(stderr, "xqdiff: %s\n", st.ToString().c_str());
        } else {
          std::fprintf(stderr, "wrote %s\n", path.c_str());
        }
      }
    }
  }

  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf(
      "xqdiff: %u seed(s), %d queries each, %zu oracles, %.1fs — %lld "
      "divergence(s)\n",
      seeds_run, args.queries, xqdb::testing::OracleNames().size(),
      elapsed.count(), total_divs);
  return total_divs == 0 ? 0 : 1;
}
