#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "service/thread_pool.h"

namespace spacetwist::service {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { ++count; });
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
  pool.Wait();  // idle Wait() returns immediately
}

TEST(ThreadPoolTest, WaitCoversTasksSubmittedByTasks) {
  // The closed-loop client pattern: each task re-enqueues the next step.
  // Wait() must not return while any chain is still running.
  ThreadPool pool(3);
  std::atomic<int> steps{0};
  std::function<void(int)> chain = [&](int remaining) {
    steps.fetch_add(1, std::memory_order_relaxed);
    if (remaining > 1) {
      pool.Submit([&chain, remaining] { chain(remaining - 1); });
    }
  };
  for (int client = 0; client < 8; ++client) {
    pool.Submit([&chain] { chain(50); });
  }
  pool.Wait();
  EXPECT_EQ(steps.load(), 8 * 50);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  // Four tasks rendezvous: each waits for the other three. This deadlocks
  // (and times out the test) unless four workers genuinely run in parallel.
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == 4; });
    });
  }
  pool.Wait();
  EXPECT_EQ(arrived, 4);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // destructor must finish all 200 before joining
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, QueueDepthInstrumentsTrackSubmissions) {
  telemetry::MetricRegistry registry;
  ThreadPoolOptions options;
  options.registry = &registry;
  ThreadPool pool(2, options);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();
  const telemetry::RegistrySnapshot snapshot = registry.Snapshot();
  bool saw_gauge = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "service.thread_pool.queue_depth") {
      saw_gauge = true;
      EXPECT_EQ(value, 0) << "drained pool must report an empty queue";
    }
  }
  EXPECT_TRUE(saw_gauge);
  bool saw_hist = false;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (name == "service.thread_pool.queue_depth_hist") {
      saw_hist = true;
      EXPECT_EQ(hist.count, 50u) << "one depth sample per submission";
      EXPECT_GE(hist.max, 1u);
    }
  }
  EXPECT_TRUE(saw_hist);
}

TEST(ThreadPoolTest, SingleThreadPoolPreservesFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace spacetwist::service
