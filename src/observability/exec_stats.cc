#include "observability/exec_stats.h"

#include <time.h>

#include <cstdio>
#include <iterator>

namespace xqdb {

namespace {

struct Field {
  const char* name;
  long long ExecStats::* member;
};

// Counter order is the narrative order of an execution: fetch, probe,
// filter, evaluate, schedule.
constexpr Field kCounters[] = {
    {"rows_scanned", &ExecStats::rows_scanned},
    {"docs_scanned", &ExecStats::docs_scanned},
    {"index_entries_probed", &ExecStats::index_entries_probed},
    {"index_docs_returned", &ExecStats::index_docs_returned},
    {"rows_filtered", &ExecStats::rows_filtered},
    {"xquery_evals", &ExecStats::xquery_evals},
    {"batches_executed", &ExecStats::batches_executed},
    {"batch_rows", &ExecStats::batch_rows},
    {"index_only_rows", &ExecStats::index_only_rows},
    {"cast_failures", &ExecStats::cast_failures},
    {"nfa_matches", &ExecStats::nfa_matches},
    {"pool_tasks", &ExecStats::pool_tasks},
    {"plan_cache_hits", &ExecStats::plan_cache_hits},
    {"structural_join_emitted", &ExecStats::structural_join_emitted},
    {"intervals_compared", &ExecStats::intervals_compared},
    {"summary_pruned_paths", &ExecStats::summary_pruned_paths},
    {"static_pruned_exprs", &ExecStats::static_pruned_exprs},
    {"static_folded_conjuncts", &ExecStats::static_folded_conjuncts},
};

constexpr Field kTimings[] = {
    {"parse_ns", &ExecStats::parse_ns},
    {"plan_ns", &ExecStats::plan_ns},
    {"exec_ns", &ExecStats::exec_ns},
    {"cpu_ns", &ExecStats::cpu_ns},
    {"total_ns", &ExecStats::total_ns},
};

// Every field has exactly one row above: ExecStats holds nothing else.
static_assert(sizeof(ExecStats) ==
                  (std::size(kCounters) + std::size(kTimings)) *
                      sizeof(long long),
              "every ExecStats field needs a kCounters or kTimings row");

}  // namespace

void ExecStats::Merge(const ExecStats& o) {
  for (const Field& f : kCounters) this->*f.member += o.*f.member;
  for (const Field& f : kTimings) this->*f.member += o.*f.member;
}

long long ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::string ExecStats::ToJson() const {
  std::string out = "{";
  bool first = true;
  auto emit = [&](const char* name, long long v) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += name;
    out += "\": ";
    out += std::to_string(v);
  };
  for (const Field& f : kCounters) emit(f.name, this->*f.member);
  for (const Field& f : kTimings) emit(f.name, this->*f.member);
  out += "}";
  return out;
}

std::string ExecStats::Render() const {
  std::string out;
  for (const Field& f : kCounters) {
    long long v = this->*f.member;
    if (v == 0) continue;
    out += "    ";
    out += f.name;
    out += " = " + std::to_string(v) + "\n";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    time: parse %.1f us, plan %.1f us, exec %.1f us "
                "(cpu %.1f us), total %.1f us\n",
                parse_ns / 1e3, plan_ns / 1e3, exec_ns / 1e3, cpu_ns / 1e3,
                total_ns / 1e3);
  out += buf;
  return out;
}

}  // namespace xqdb
