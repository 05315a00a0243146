#include "analysis/lock_order.h"

#if defined(XQDB_DEADLOCK)

#include <execinfo.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xqdb {
namespace lockorder {

namespace {

/// Hard bound on distinct lock classes; the declared table has 18 rows and
/// registration aborts on undeclared names, so this can never be hit
/// without first growing kLockHierarchy.
constexpr int kMaxClasses = 32;
constexpr int kMaxBacktrace = 24;
constexpr int kMaxHeld = 16;

struct Backtrace {
  void* frames[kMaxBacktrace];
  int depth = 0;

  void Capture() { depth = ::backtrace(frames, kMaxBacktrace); }
};

struct ClassInfo {
  const char* name = nullptr;
  int rank = 0;
};

ClassInfo g_classes[kMaxClasses];
std::atomic<int> g_class_count{0};

/// The detector's own synchronization is a raw spinlock on purpose: it
/// must not recurse into the instrumented Mutex, and the guarded sections
/// (class registration, first-observation of an edge, snapshot dumps) are
/// all cold paths.
std::atomic_flag g_graph_lock = ATOMIC_FLAG_INIT;

struct SpinLock {
  SpinLock() {
    while (g_graph_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SpinLock() { g_graph_lock.clear(std::memory_order_release); }
};

/// Acquires-after adjacency, one bitmask row per class (bit v of g_adj[u]
/// = "v was acquired while u was held"). The union of shared+exclusive
/// drives cycle detection; counts are kept per mode for the JSON dump.
std::atomic<uint64_t> g_adj[kMaxClasses];
std::atomic<long long> g_edge_count[kMaxClasses][kMaxClasses][2];

/// First-observation acquisition backtrace per directed edge, written once
/// under the spinlock — the "other side" printed when a later inversion of
/// the same pair aborts.
Backtrace g_edge_site[kMaxClasses][kMaxClasses];

struct Held {
  int id = 0;
  const void* instance = nullptr;
  bool shared = false;
  Backtrace acquired_at;
};

thread_local Held t_held[kMaxHeld];
thread_local int t_depth = 0;

void PrintBacktrace(const char* label, const Backtrace& bt) {
  std::fprintf(stderr, "%s\n", label);
  if (bt.depth <= 0) {
    std::fprintf(stderr, "  (no frames captured)\n");
    return;
  }
  // backtrace_symbols_fd writes straight to the fd — no malloc after the
  // failure point.
  ::backtrace_symbols_fd(const_cast<void* const*>(bt.frames), bt.depth, 2);
}

void PrintHeldStack() {
  std::fprintf(stderr, "held-lock stack (oldest first):\n");
  for (int i = 0; i < t_depth; ++i) {
    const ClassInfo& c = g_classes[t_held[i].id];
    std::fprintf(stderr, "  [%d] %s (rank %d, %s)\n", i, c.name, c.rank,
                 t_held[i].shared ? "shared" : "exclusive");
  }
}

[[noreturn]] void AbortRankViolation(const Held& held, int next_id,
                                     bool next_shared, const char* kind) {
  const ClassInfo& h = g_classes[held.id];
  const ClassInfo& n = g_classes[next_id];
  std::fprintf(stderr,
               "xqdb: lock-order violation (%s): acquiring '%s' (rank %d, "
               "%s) while holding '%s' (rank %d, %s) — the declared "
               "hierarchy requires strictly increasing ranks\n",
               kind, n.name, n.rank, next_shared ? "shared" : "exclusive",
               h.name, h.rank, held.shared ? "shared" : "exclusive");
  PrintHeldStack();
  Backtrace now;
  now.Capture();
  PrintBacktrace("acquisition backtrace (this thread, now):", now);
  PrintBacktrace("conflicting acquisition backtrace (where the held lock "
                 "was taken):",
                 held.acquired_at);
  // If the opposite order was ever observed, show where: that pair of
  // sites is the would-be deadlock.
  uint64_t reverse = g_adj[next_id].load(std::memory_order_acquire);
  if ((reverse >> held.id) & 1u) {
    PrintBacktrace(
        "reverse-edge backtrace (first time the opposite order ran):",
        g_edge_site[next_id][held.id]);
  }
  std::abort();
}

[[noreturn]] void AbortCycle(int from, int to) {
  std::fprintf(stderr,
               "xqdb: lock-order cycle: edge '%s' -> '%s' closes a cycle "
               "in the acquires-after graph\n",
               g_classes[from].name, g_classes[to].name);
  PrintHeldStack();
  Backtrace now;
  now.Capture();
  PrintBacktrace("acquisition backtrace (this thread, now):", now);
  PrintBacktrace("reverse-path backtrace (first acquisition of the "
                 "opposite order):",
                 g_edge_site[to][from]);
  std::abort();
}

/// DFS reachability from `from` over the adjacency union — called only
/// when a new edge appears (cold). Iterative; the graph has at most
/// kMaxClasses nodes.
bool Reaches(int from, int target) {
  uint64_t visited = 0;
  int stack[kMaxClasses];
  int sp = 0;
  stack[sp++] = from;
  while (sp > 0) {
    int u = stack[--sp];
    if (u == target) return true;
    if ((visited >> u) & 1u) continue;
    visited |= 1ull << u;
    uint64_t row = g_adj[u].load(std::memory_order_acquire);
    for (int v = 0; v < kMaxClasses; ++v) {
      if (((row >> v) & 1u) && !((visited >> v) & 1u)) stack[sp++] = v;
    }
  }
  return false;
}

void AddEdge(const Held& held, int to, bool shared) {
  int from = held.id;
  g_edge_count[from][to][shared ? 1 : 0].fetch_add(
      1, std::memory_order_relaxed);
  uint64_t bit = 1ull << to;
  uint64_t prev = g_adj[from].fetch_or(bit, std::memory_order_acq_rel);
  if ((prev & bit) != 0) return;  // known edge — hot path ends here
  {
    SpinLock lock;
    g_edge_site[from][to] = held.acquired_at;
    // The edge is new: re-run reachability. `to` reaching back to `from`
    // means this acquisition closes a cycle. (Rank monotonicity makes
    // this unreachable while every class has a distinct declared rank;
    // the graph check is the independent backstop the hierarchy table is
    // audited against.)
    if (Reaches(to, from)) {
      g_edge_site[from][to].Capture();
      AbortCycle(from, to);
    }
  }
}

}  // namespace

LockClassId RegisterLockClass(const char* name, LockRank rank) {
  const LockRankRow* row = FindLockRankRow(name);
  if (row == nullptr || row->rank != rank) {
    std::fprintf(stderr,
                 "xqdb: lock class '%s' (rank %d) is not declared in the "
                 "central lock-hierarchy table (analysis/lock_order.h) — "
                 "every Mutex must be constructed from a declared row\n",
                 name, static_cast<int>(rank));
    std::abort();
  }
  SpinLock lock;
  int n = g_class_count.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if (std::strcmp(g_classes[i].name, name) == 0) return i;
  }
  if (n >= kMaxClasses) {
    std::fprintf(stderr, "xqdb: too many lock classes (max %d)\n",
                 kMaxClasses);
    std::abort();
  }
  g_classes[n].name = name;
  g_classes[n].rank = static_cast<int>(rank);
  g_class_count.store(n + 1, std::memory_order_release);
  return n;
}

void OnAcquire(LockClassId id, const void* instance, bool shared) {
  // Shared-then-exclusive upgrade on the same object self-deadlocks with
  // std::shared_mutex; flag it before blocking.
  for (int i = 0; i < t_depth; ++i) {
    if (t_held[i].instance == instance && t_held[i].shared && !shared) {
      AbortRankViolation(t_held[i], id, shared,
                         "shared-then-exclusive upgrade");
    }
  }
  if (t_depth > 0) {
    const Held& top = t_held[t_depth - 1];
    if (g_classes[id].rank <= g_classes[top.id].rank) {
      AbortRankViolation(top, id, shared, "rank not increasing");
    }
  }
  if (t_depth >= kMaxHeld) {
    std::fprintf(stderr, "xqdb: held-lock stack overflow (%d locks)\n",
                 t_depth);
    std::abort();
  }
  Held& slot = t_held[t_depth];
  slot.id = id;
  slot.instance = instance;
  slot.shared = shared;
  slot.acquired_at.Capture();
  // Record after the slot is filled so AddEdge can persist this site as
  // the edge's first-observation backtrace.
  for (int i = 0; i < t_depth; ++i) AddEdge(t_held[i], id, shared);
  ++t_depth;
}

void OnRelease(LockClassId id, const void* instance) {
  for (int i = t_depth - 1; i >= 0; --i) {
    if (t_held[i].instance == instance && t_held[i].id == id) {
      for (int j = i; j + 1 < t_depth; ++j) t_held[j] = t_held[j + 1];
      --t_depth;
      return;
    }
  }
  std::fprintf(stderr,
               "xqdb: releasing lock '%s' that is not on this thread's "
               "held-lock stack\n",
               g_classes[id].name);
  PrintHeldStack();
  std::abort();
}

void OnWaitRelease(LockClassId id, const void* instance) {
  // The condvar releases the mutex for the duration of the wait; the held
  // stack must agree or a rank check during the wait would charge this
  // thread with a lock it does not hold.
  OnRelease(id, instance);
}

void OnWaitReacquire(LockClassId id, const void* instance) {
  // Wakeup re-acquires the mutex inside the condvar; re-validate rank
  // against whatever the thread still holds — waiting with a higher-rank
  // lock still held is itself a hierarchy violation and aborts here.
  OnAcquire(id, instance, /*shared=*/false);
}

std::vector<std::string> HeldLockNames() {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(t_depth));
  for (int i = 0; i < t_depth; ++i) {
    names.emplace_back(g_classes[t_held[i].id].name);
  }
  return names;
}

void ResetGraphForTesting() {
  SpinLock lock;
  for (auto& row : g_adj) row.store(0, std::memory_order_relaxed);
  for (auto& row : g_edge_count) {
    for (auto& cell : row) {
      for (auto& mode : cell) mode.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace lockorder

std::vector<LockOrderEdge> LockOrderEdges() {
  using lockorder::g_class_count;
  using lockorder::g_classes;
  using lockorder::g_edge_count;
  std::vector<LockOrderEdge> edges;
  int n = g_class_count.load(std::memory_order_acquire);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      for (int mode = 0; mode < 2; ++mode) {
        long long c = g_edge_count[u][v][mode].load(std::memory_order_relaxed);
        if (c == 0) continue;
        LockOrderEdge e;
        e.from = g_classes[u].name;
        e.to = g_classes[v].name;
        e.from_rank = g_classes[u].rank;
        e.to_rank = g_classes[v].rank;
        e.shared = mode == 1;
        e.count = c;
        edges.push_back(std::move(e));
      }
    }
  }
  return edges;
}

std::string LockOrderSnapshotJson() {
  using lockorder::g_class_count;
  using lockorder::g_classes;
  std::string out = "{\"enabled\": true, \"nodes\": [";
  int n = g_class_count.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": \"";
    out += g_classes[i].name;
    out += "\", \"rank\": " + std::to_string(g_classes[i].rank) + "}";
  }
  out += "], \"edges\": [";
  bool first = true;
  for (const LockOrderEdge& e : LockOrderEdges()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"from\": \"" + e.from + "\", \"to\": \"" + e.to +
           "\", \"mode\": \"" + (e.shared ? "shared" : "exclusive") +
           "\", \"count\": " + std::to_string(e.count) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace xqdb

#endif  // XQDB_DEADLOCK
