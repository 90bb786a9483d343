// Tests for the lock-rank discipline (docs/ANALYSIS.md, Lock ranks): the
// debug-mode runtime enforcer in src/common/mutex.{h,cc} must accept every
// rank-ascending nesting and abort — naming both locks — on an inversion.
// The rest of the suite exercises the real serving-stack orderings; this
// file pins the enforcer's own semantics with synthetic mutexes.

#include "common/mutex.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

namespace spacetwist {
namespace {

#ifdef SPACETWIST_LOCK_RANK_CHECKS

TEST(LockRankTest, AscendingNestingIsAllowed) {
  Mutex outer(LockRank::kEngineFront, "test.outer");
  Mutex inner(LockRank::kTraceSink, "test.inner");
  Mutex innermost(LockRank::kMetricRegistry, "test.innermost");
  MutexLock a(&outer);
  MutexLock b(&inner);
  MutexLock c(&innermost);
}

TEST(LockRankTest, ReacquireAfterReleaseIsAllowed) {
  Mutex high(LockRank::kTraceSink, "test.high");
  Mutex low(LockRank::kThreadPool, "test.low");
  {
    MutexLock lock(&high);
  }
  // The stack is empty again: the lower rank is fine now, and so is
  // climbing back up.
  MutexLock a(&low);
  MutexLock b(&high);
}

TEST(LockRankTest, SkippingLevelsIsAllowed) {
  // Ranks must strictly increase, not be adjacent.
  Mutex outer(LockRank::kFaultyTransport, "test.outermost");
  Mutex inner(LockRank::kMetricRegistry, "test.innermost");
  MutexLock a(&outer);
  MutexLock b(&inner);
}

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InversionAbortsWithBothNames) {
  Mutex high(LockRank::kBufferPool, "test.pool");
  Mutex low(LockRank::kEngineFront, "test.sessions");
  EXPECT_DEATH(
      {
        MutexLock a(&high);
        MutexLock b(&low);
      },
      "lock-rank violation: acquiring \"test\\.sessions\" \\(rank 500\\) "
      "while holding \"test\\.pool\" \\(rank 900\\)");
}

TEST(LockRankDeathTest, EqualRankAborts) {
  // Two same-rank locks can deadlock against each other taken in opposite
  // orders, so equal rank is an inversion too (strict increase required).
  Mutex first(LockRank::kEngineFront, "test.stripe_a");
  Mutex second(LockRank::kEngineFront, "test.stripe_b");
  EXPECT_DEATH(
      {
        MutexLock a(&first);
        MutexLock b(&second);
      },
      "lock-rank violation: acquiring \"test\\.stripe_b\".*"
      "while holding \"test\\.stripe_a\"");
}

TEST(LockRankDeathTest, SuccessfulTryLockCountsAsHeld) {
  Mutex high(LockRank::kRouterFanout, "test.fanout");
  Mutex low(LockRank::kEngineFront, "test.front");
  EXPECT_DEATH(
      {
        if (high.TryLock()) {
          MutexLock b(&low);
        }
      },
      "lock-rank violation: acquiring \"test\\.front\".*"
      "while holding \"test\\.fanout\"");
}

TEST(LockRankTest, FailedTryLockLeavesTheStackUntouched) {
  Mutex contended(LockRank::kTraceSink, "test.contended");
  Mutex low(LockRank::kThreadPool, "test.low_after_try");
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    contended.Lock();
    held.store(true);
    while (!release.load()) std::this_thread::yield();
    contended.Unlock();
  });
  while (!held.load()) std::this_thread::yield();
  // The failed try must not record test.contended as held here — otherwise
  // this lower-rank acquisition would abort.
  EXPECT_FALSE(contended.TryLock());
  {
    MutexLock lock(&low);
  }
  release.store(true);
  holder.join();
}

TEST(LockRankTest, CondVarWaitReleasesAndReacquiresTheRank) {
  Mutex mu(LockRank::kEngineFront, "test.cv_mu");
  Mutex higher(LockRank::kTraceSink, "test.cv_higher");
  CondVar cv;
  std::atomic<bool> woke{false};
  bool go = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!go) cv.Wait(&mu);
    // After the wakeup the rank is held again and the stack is consistent:
    // climbing to a higher rank must still be legal.
    MutexLock inner(&higher);
    woke.store(true);
  });
  {
    // The waiter's rank stack is per-thread; this thread's acquisitions
    // are independent of its wait.
    MutexLock lock(&mu);
    go = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

#else  // !SPACETWIST_LOCK_RANK_CHECKS

TEST(LockRankTest, EnforcerCompiledOut) {
  GTEST_SKIP() << "built without SPACETWIST_LOCK_RANK_CHECKS";
}

#endif  // SPACETWIST_LOCK_RANK_CHECKS

}  // namespace
}  // namespace spacetwist
