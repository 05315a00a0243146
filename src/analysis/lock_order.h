#ifndef XQDB_ANALYSIS_LOCK_ORDER_H_
#define XQDB_ANALYSIS_LOCK_ORDER_H_

#include <array>
#include <string>
#include <vector>

/// Deadlock-freedom analysis: the central lock-hierarchy table, and (in
/// debug / -DXQDB_DEADLOCK=ON builds) a runtime lock-order detector.
///
/// DESIGN.md §9 documents the process lock inventory as a *ranked
/// hierarchy*: every `Mutex`/`SharedMutex` is constructed with a name and a
/// declared rank from the table below, and a thread may only acquire a lock
/// whose rank is strictly greater than the rank of every lock it already
/// holds. Rank monotonicity implies the acquires-after relation is acyclic,
/// which implies deadlock freedom — and unlike the prose inventory this is
/// machine-checked:
///
///  - at compile time, the table here is the single source of truth
///    (constructing a Mutex under a name/rank pair that is not in the
///    table aborts in checking builds — the hierarchy cannot drift);
///  - at run time (XQDB_DEADLOCK), every acquisition pushes onto a
///    per-thread held-lock stack, validates rank monotonicity, and records
///    an edge in a process-wide acquires-after graph with incremental
///    cycle detection. A rank violation or a new cycle aborts the process
///    with both acquisition backtraces (the current one and the recorded
///    acquisition site of the held/reverse lock).
///
/// The observed graph is dumpable as JSON (DOT-convertible) through
/// LockOrderSnapshotJson() — the `LOCKGRAPH` server verb and tests use it.
/// In release builds every hook compiles out: Mutex is byte-identical to
/// std::mutex and no `lockorder` symbol exists in the binaries (CI pins
/// this with an `nm` sweep).

namespace xqdb {

/// The declared rank of every lock class in the process. Bands follow the
/// statement lifecycle: the epoch writer gate is held across a whole DML
/// statement, so it must be acquired first (lowest rank); metrics/trace/env
/// diagnostics are leaves acquired last (highest rank). Within a band,
/// ranks are distinct so nested same-band acquisitions (writer gate →
/// commit pin bump) are still a total order.
enum class LockRank : int {
  // epoch band: writer gate spans the statement; pins nest under it at
  // commit time (WriteTicket dtor) and stand alone at Pin/Unpin.
  kEpochWriter = 100,
  kEpochPins = 110,
  // catalog band: table registry (short reader/writer scopes).
  kCatalog = 200,
  // table/storage band: deferred-vacuum queue.
  kTableDeferred = 300,
  // index band: per-table index registry, then the per-index locks and the
  // per-column path summary.
  kIndexManager = 400,
  kXmlIndex = 420,
  kPathSummary = 430,
  // plan/pattern cache band.
  kQueryCache = 500,
  kPatternCache = 510,
  // pool band: global-pool slot, the work queue, and ParallelFor's
  // per-invocation completion/error pair.
  kPoolGlobal = 600,
  kPoolWork = 610,
  kPoolDone = 620,
  kPoolError = 630,
  // leaves: name interning, admission control, metrics/trace/env
  // diagnostics. Nothing is ever acquired under these.
  kNamePool = 650,
  kSemaphore = 660,
  kMetrics = 700,
  kTraceSink = 710,
  kEnvWarn = 720,
};

/// Rank monotonicity: `next` may be acquired while holding `held` iff its
/// rank is strictly greater. This is the *static* form of the check — the
/// declared rank table rejects a hierarchy violation without running any
/// thread (tests pin the table with it); the runtime detector enforces the
/// same predicate on live acquisition stacks.
constexpr bool RankOrderAllows(LockRank held, LockRank next) {
  return static_cast<int>(next) > static_cast<int>(held);
}

/// One row of the central lock-hierarchy table: the lock-class name every
/// Mutex of that class is constructed with, its declared rank, the owning
/// component, and the locks it is known to nest under ("-" = acquired with
/// nothing held, i.e. a hierarchy root for its paths).
struct LockRankRow {
  const char* name;
  LockRank rank;
  const char* component;
  const char* held_under;
};

/// The declared lock hierarchy — the enforced artifact DESIGN.md §9's
/// table renders. Every Mutex/SharedMutex construction site names one of
/// these rows; checking builds abort on a name or rank not in the table.
inline constexpr std::array<LockRankRow, 18> kLockHierarchy = {{
    {"epoch.writer", LockRank::kEpochWriter, "common/epoch", "-"},
    {"epoch.pins", LockRank::kEpochPins, "common/epoch", "epoch.writer"},
    {"storage.catalog", LockRank::kCatalog, "storage/catalog",
     "epoch.writer"},
    {"table.deferred", LockRank::kTableDeferred, "storage/table",
     "epoch.writer"},
    {"index.manager", LockRank::kIndexManager, "index/index_manager",
     "epoch.writer"},
    {"index.xml", LockRank::kXmlIndex, "index/xml_index", "epoch.writer"},
    {"index.path_summary", LockRank::kPathSummary, "index/path_summary",
     "epoch.writer"},
    {"cache.query", LockRank::kQueryCache, "core/query_cache",
     "epoch.writer"},
    {"cache.pattern", LockRank::kPatternCache, "xpath/pattern_cache",
     "epoch.writer, index.xml"},
    {"pool.global", LockRank::kPoolGlobal, "common/thread_pool", "-"},
    {"pool.work", LockRank::kPoolWork, "common/thread_pool",
     "pool.global, any ParallelFor caller"},
    {"pool.done", LockRank::kPoolDone, "common/thread_pool",
     "any ParallelFor caller"},
    {"pool.error", LockRank::kPoolError, "common/thread_pool",
     "any ParallelFor caller"},
    {"xml.namepool", LockRank::kNamePool, "xml/qname",
     "index.xml, index.path_summary"},
    {"server.admission", LockRank::kSemaphore, "common/semaphore", "-"},
    {"metrics.registry", LockRank::kMetrics, "observability/metrics",
     "any (leaf)"},
    {"trace.sink", LockRank::kTraceSink, "observability/trace",
     "any (leaf)"},
    {"env.warn", LockRank::kEnvWarn, "common/str_util", "any (leaf)"},
}};

/// Table lookup by class name; nullptr when the name is not declared.
constexpr const LockRankRow* FindLockRankRow(const char* name) {
  for (const LockRankRow& row : kLockHierarchy) {
    const char* a = row.name;
    const char* b = name;
    while (*a != '\0' && *a == *b) {
      ++a;
      ++b;
    }
    if (*a == '\0' && *b == '\0') return &row;
  }
  return nullptr;
}

/// One observed acquires-after edge: while holding `from`, a thread
/// acquired `to` (in shared or exclusive mode), `count` times so far.
struct LockOrderEdge {
  std::string from;
  std::string to;
  int from_rank = 0;
  int to_rank = 0;
  bool shared = false;
  long long count = 0;
};

#if defined(XQDB_DEADLOCK)

inline constexpr bool kLockOrderEnabled = true;

namespace lockorder {

using LockClassId = int;

/// Interns a lock class by name. Every Mutex of the same name shares one
/// node in the acquires-after graph (lockdep-style lock classes). Aborts
/// on a (name, rank) pair that contradicts kLockHierarchy — the central
/// table is the only place a rank may be declared.
LockClassId RegisterLockClass(const char* name, LockRank rank);

/// Acquisition hooks, called by common/mutex.h immediately *before* the
/// underlying lock/unlock so a would-be deadlock aborts with a diagnosis
/// instead of hanging. `instance` distinguishes objects within a class
/// (upgrade detection); `shared` marks reader-mode acquisition of a
/// SharedMutex.
void OnAcquire(LockClassId id, const void* instance, bool shared);
void OnRelease(LockClassId id, const void* instance);

/// CondVar::Wait bracket: the waited mutex leaves the held stack for the
/// duration of the wait (the condvar releases it) and is re-pushed — with
/// its rank re-validated against the locks still held — on wakeup.
void OnWaitRelease(LockClassId id, const void* instance);
void OnWaitReacquire(LockClassId id, const void* instance);

/// Current thread's held-lock class names, bottom (oldest) first. Test
/// introspection for the CondVar stack-consistency contract.
std::vector<std::string> HeldLockNames();

/// Clears observed edges/counts (lock-class registrations persist — live
/// Mutex instances hold their ids). Tests isolate observation windows
/// with this; never called by the engine.
void ResetGraphForTesting();

}  // namespace lockorder

/// Every observed acquires-after edge (metrics-style snapshot: callable
/// any time, from any thread).
std::vector<LockOrderEdge> LockOrderEdges();

/// JSON dump of the lock-order graph:
///   {"enabled": true,
///    "nodes": [{"name": ..., "rank": N}, ...],
///    "edges": [{"from": ..., "to": ..., "mode": "shared|exclusive",
///               "count": N}, ...]}
/// DOT-convertible one edge per line; served live by the LOCKGRAPH verb.
std::string LockOrderSnapshotJson();

#else  // !XQDB_DEADLOCK

inline constexpr bool kLockOrderEnabled = false;

/// Release builds compile the detector out entirely (analysis/lock_order.cc
/// is an empty TU; no `lockorder` symbol survives — CI's no-op-symbol check
/// pins that). The snapshot hook stays callable so the LOCKGRAPH verb has
/// one code path.
inline std::vector<LockOrderEdge> LockOrderEdges() { return {}; }

inline std::string LockOrderSnapshotJson() {
  return "{\"enabled\": false, \"nodes\": [], \"edges\": []}";
}

#endif  // XQDB_DEADLOCK

}  // namespace xqdb

#endif  // XQDB_ANALYSIS_LOCK_ORDER_H_
