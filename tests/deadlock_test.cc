// Deadlock-freedom analysis tests: the declared lock-hierarchy table is
// pinned statically (an inversion is rejected at compile time by
// RankOrderAllows over the table), and the XQDB_DEADLOCK runtime detector
// is exercised end to end — rank violations and shared-then-exclusive
// upgrades abort with both acquisition backtraces, the CondVar wait
// bracket keeps the held-lock stack consistent, and the observed
// acquires-after graph is dumpable as JSON.

#include "analysis/lock_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace xqdb {
namespace {

// ---------------------------------------------------------------------------
// Static checks: the central table rejects an inversion without running any
// thread. These are the compile-time form of the acceptance criterion "an
// intentional lock-order inversion is rejected statically by the rank
// table".

// The sanctioned nesting (WriteTicket commit: pins under the writer gate).
static_assert(RankOrderAllows(LockRank::kEpochWriter, LockRank::kEpochPins));
// The intentional inversion of that pair does not compile as "allowed".
static_assert(!RankOrderAllows(LockRank::kEpochPins, LockRank::kEpochWriter));
// A leaf can never sit under itself (no recursive acquisition) ...
static_assert(!RankOrderAllows(LockRank::kMetrics, LockRank::kMetrics));
// ... and never above engine locks (metrics is a leaf band).
static_assert(!RankOrderAllows(LockRank::kMetrics, LockRank::kEpochWriter));
static_assert(!RankOrderAllows(LockRank::kTraceSink, LockRank::kQueryCache));
// Statement spine: writer gate -> catalog -> table -> indexes -> caches.
static_assert(RankOrderAllows(LockRank::kEpochWriter, LockRank::kCatalog));
static_assert(RankOrderAllows(LockRank::kCatalog, LockRank::kTableDeferred));
static_assert(RankOrderAllows(LockRank::kIndexManager, LockRank::kXmlIndex));
static_assert(RankOrderAllows(LockRank::kXmlIndex, LockRank::kPatternCache));
static_assert(RankOrderAllows(LockRank::kPatternCache, LockRank::kNamePool));

// Table lookups are constexpr: the hierarchy is queryable at compile time.
// Dereferencing a missing (null) row is not a constant expression, so each
// ->rank pin also pins that the row exists.
static_assert(FindLockRankRow("epoch.writer")->rank == LockRank::kEpochWriter);
static_assert(FindLockRankRow("metrics.registry")->rank == LockRank::kMetrics);
static_assert(FindLockRankRow("no.such.lock") == nullptr);

// kLockOrderEnabled mirrors the build flag exactly.
#if defined(XQDB_DEADLOCK)
static_assert(kLockOrderEnabled);
#else
static_assert(!kLockOrderEnabled);
// Release builds: the wrappers must stay byte-identical to the standard
// primitives — the whole detector is compiled out, not just disabled.
static_assert(sizeof(Mutex) == sizeof(std::mutex));
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex));
#endif

TEST(LockHierarchyTable, NamesAndRanksAreDistinct) {
  std::set<std::string> names;
  std::set<int> ranks;
  for (const LockRankRow& row : kLockHierarchy) {
    EXPECT_TRUE(names.insert(row.name).second)
        << "duplicate lock-class name: " << row.name;
    EXPECT_TRUE(ranks.insert(static_cast<int>(row.rank)).second)
        << "duplicate rank for: " << row.name;
    EXPECT_NE(std::string(row.component), "");
    EXPECT_NE(std::string(row.held_under), "");
  }
  EXPECT_EQ(names.size(), kLockHierarchy.size());
}

TEST(LockHierarchyTable, EveryRowIsFindableAndSelfConsistent) {
  for (const LockRankRow& row : kLockHierarchy) {
    const LockRankRow* found = FindLockRankRow(row.name);
    ASSERT_NE(found, nullptr) << row.name;
    EXPECT_EQ(found->rank, row.rank) << row.name;
  }
  EXPECT_EQ(FindLockRankRow(""), nullptr);
  EXPECT_EQ(FindLockRankRow("epoch"), nullptr);       // prefix is not a match
  EXPECT_EQ(FindLockRankRow("epoch.writerx"), nullptr);
}

#if !defined(XQDB_DEADLOCK)

TEST(LockOrderDisabled, SnapshotReportsDisabled) {
  // The LOCKGRAPH verb keeps one code path; operators can tell a quiet
  // graph from a disabled detector.
  std::string json = LockOrderSnapshotJson();
  EXPECT_NE(json.find("\"enabled\": false"), std::string::npos) << json;
  EXPECT_TRUE(LockOrderEdges().empty());
}

#else  // XQDB_DEADLOCK

using lockorder::HeldLockNames;

int CountName(const std::vector<std::string>& held, const char* name) {
  return static_cast<int>(std::count(held.begin(), held.end(), name));
}

TEST(LockOrderDeathTest, RankInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two *declared* classes acquired in reverse rank order: the detector
  // aborts before the second lock() would ever block.
  EXPECT_DEATH(
      {
        Mutex hi("cache.query", LockRank::kQueryCache);
        Mutex lo("storage.catalog", LockRank::kCatalog);
        MutexLock outer(hi);
        MutexLock inner(lo);  // rank 200 under rank 500: inversion
      },
      "lock-order violation \\(rank not increasing\\)");
}

TEST(LockOrderDeathTest, EqualRankReacquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Strictly increasing: a second lock of the same class (self-deadlock
  // with std::mutex) is a rank violation too.
  EXPECT_DEATH(
      {
        Mutex a("cache.query", LockRank::kQueryCache);
        Mutex b("cache.query", LockRank::kQueryCache);
        MutexLock outer(a);
        MutexLock inner(b);
      },
      "lock-order violation \\(rank not increasing\\)");
}

TEST(LockOrderDeathTest, SharedThenExclusiveUpgradeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SharedMutex mu("index.xml", LockRank::kXmlIndex);
        mu.ReaderLock();
        mu.Lock();  // upgrade on the same instance: self-deadlock
      },
      "shared-then-exclusive upgrade");
}

TEST(LockOrderDeathTest, UndeclaredLockClassAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The table is the only place a rank may be declared; an ad-hoc name
  // aborts at construction, so the hierarchy cannot drift.
  EXPECT_DEATH({ Mutex rogue("rogue.lock", LockRank::kMetrics); },
               "not declared in the central lock-hierarchy table");
}

TEST(LockOrderDeathTest, WrongDeclaredRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ Mutex wrong("storage.catalog", LockRank::kMetrics); },
               "not declared in the central lock-hierarchy table");
}

TEST(LockOrder, HeldStackTracksNesting) {
  Mutex writer("epoch.writer", LockRank::kEpochWriter);
  Mutex pins("epoch.pins", LockRank::kEpochPins);
  EXPECT_TRUE(HeldLockNames().empty());
  {
    MutexLock outer(writer);
    EXPECT_EQ(HeldLockNames(), std::vector<std::string>{"epoch.writer"});
    {
      MutexLock inner(pins);
      EXPECT_EQ(HeldLockNames(),
                (std::vector<std::string>{"epoch.writer", "epoch.pins"}));
    }
    EXPECT_EQ(HeldLockNames(), std::vector<std::string>{"epoch.writer"});
  }
  EXPECT_TRUE(HeldLockNames().empty());
}

TEST(LockOrder, TryLockParticipatesOnSuccessOnly) {
  Mutex writer("epoch.writer", LockRank::kEpochWriter);
  Mutex pins("epoch.pins", LockRank::kEpochPins);
  {
    MutexLock outer(writer);
    ASSERT_TRUE(pins.TryLock());
    EXPECT_EQ(CountName(HeldLockNames(), "epoch.pins"), 1);
    pins.Unlock();
    EXPECT_EQ(CountName(HeldLockNames(), "epoch.pins"), 0);

    // A failed TryLock (lock busy in another thread) must leave no trace.
    std::thread holder([&pins] {
      MutexLock hold(pins);
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    });
    // Wait until the holder actually owns it.
    while (pins.TryLock()) {
      pins.Unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(CountName(HeldLockNames(), "epoch.pins"), 0);
    holder.join();
  }
}

// Satellite (b): the CondVar wait bracket. The waited mutex must leave the
// held stack for the duration of the wait (the condvar really releases it)
// and come back exactly once on wakeup. Reverting either half of the
// OnWaitRelease/OnWaitReacquire bracket fails this test: dropping the
// release leaves the name visible inside the predicate (which runs during
// the wait); dropping the reacquire leaves the stack empty after Wait()
// returns, and the scoped unlock then aborts on a foreign release.
TEST(LockOrder, CondVarWaitKeepsHeldStackConsistent) {
  Mutex mu("epoch.writer", LockRank::kEpochWriter);
  CondVar cv;
  bool ready = false;
  std::vector<std::vector<std::string>> during_wait;

  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      MutexLock lock(mu);  // the wait really released it: this acquires
      ready = true;
    }
    cv.NotifyAll();
  });

  {
    MutexLock lock(mu);
    EXPECT_EQ(CountName(HeldLockNames(), "epoch.writer"), 1);
    cv.Wait(mu, [&] {
      during_wait.push_back(HeldLockNames());
      return ready;
    });
    // Reacquired: on the stack again, exactly once (not duplicated).
    EXPECT_EQ(CountName(HeldLockNames(), "epoch.writer"), 1);
  }
  notifier.join();

  // The predicate runs while the condvar owns the native lock, i.e. inside
  // the bracket: the mutex must NOT appear held there.
  ASSERT_FALSE(during_wait.empty());
  for (const auto& held : during_wait) {
    EXPECT_EQ(CountName(held, "epoch.writer"), 0);
  }
  EXPECT_TRUE(HeldLockNames().empty());
}

TEST(LockOrder, TimedWaitKeepsHeldStackConsistent) {
  Mutex mu("epoch.writer", LockRank::kEpochWriter);
  CondVar cv;
  {
    MutexLock lock(mu);
    bool satisfied = cv.WaitFor(mu, std::chrono::milliseconds(10),
                                [] { return false; });
    EXPECT_FALSE(satisfied);  // timed out
    EXPECT_EQ(CountName(HeldLockNames(), "epoch.writer"), 1);
  }
  EXPECT_TRUE(HeldLockNames().empty());
}

TEST(LockOrder, ObservedEdgesAreRankMonotoneAndDeclared) {
  lockorder::ResetGraphForTesting();
  Mutex writer("epoch.writer", LockRank::kEpochWriter);
  Mutex pins("epoch.pins", LockRank::kEpochPins);
  SharedMutex xml("index.xml", LockRank::kXmlIndex);
  {
    MutexLock a(writer);
    { MutexLock b(pins); }
    { MutexLock b(pins); }          // same edge twice: count accumulates
    { ReaderMutexLock r(xml); }     // reader edge, tracked as shared
  }

  std::vector<LockOrderEdge> edges = LockOrderEdges();
  bool saw_pins = false;
  bool saw_shared_xml = false;
  for (const LockOrderEdge& e : edges) {
    // Acceptance: the observed graph is a subgraph of the declared
    // hierarchy — both endpoints declared, rank strictly increasing.
    const LockRankRow* from = FindLockRankRow(e.from.c_str());
    const LockRankRow* to = FindLockRankRow(e.to.c_str());
    ASSERT_NE(from, nullptr) << e.from;
    ASSERT_NE(to, nullptr) << e.to;
    EXPECT_TRUE(RankOrderAllows(from->rank, to->rank))
        << e.from << " -> " << e.to;
    EXPECT_LT(e.from_rank, e.to_rank);
    EXPECT_GT(e.count, 0);
    if (e.from == "epoch.writer" && e.to == "epoch.pins" && !e.shared) {
      saw_pins = true;
      EXPECT_EQ(e.count, 2);
    }
    if (e.from == "epoch.writer" && e.to == "index.xml" && e.shared) {
      saw_shared_xml = true;
      EXPECT_EQ(e.count, 1);
    }
  }
  EXPECT_TRUE(saw_pins);
  EXPECT_TRUE(saw_shared_xml);
}

TEST(LockOrder, SnapshotJsonHasNodesAndEdges) {
  lockorder::ResetGraphForTesting();
  Mutex writer("epoch.writer", LockRank::kEpochWriter);
  Mutex pins("epoch.pins", LockRank::kEpochPins);
  {
    MutexLock a(writer);
    MutexLock b(pins);
  }
  std::string json = LockOrderSnapshotJson();
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nodes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"edges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch.writer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"from\": \"epoch.writer\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"to\": \"epoch.pins\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mode\": \"exclusive\""), std::string::npos) << json;
}

#endif  // XQDB_DEADLOCK

}  // namespace
}  // namespace xqdb
