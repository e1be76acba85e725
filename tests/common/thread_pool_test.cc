#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hunter::common {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 285);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  // Regression: submitting after shutdown used to enqueue a task no worker
  // would ever run, so the returned future's get() hung forever.
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndDrainsQueue) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // destructor must finish all queued work before joining
  EXPECT_EQ(counter.load(), 50);
}

// Spins (sleeping) until `count` reaches `parties`; false after ~10 s, so a
// broken fork-join fails the test instead of hanging it.
bool AwaitParties(const std::atomic<int>& count, int parties) {
  for (int waited_ms = 0; waited_ms < 10000; ++waited_ms) {
    if (count.load() >= parties) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(ThreadPoolParallelForTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, pool.num_threads(),
                         size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolParallelForTest, CallerRunsTheLoopWhenTheWorkerIsBlocked) {
  // The only worker is parked on a gate, so the queued helper cannot start:
  // the loop must still finish, on the calling thread alone.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> blocked{0};
  std::future<void> blocker = pool.Submit([gate, &blocked] {
    blocked.store(1);
    gate.wait();
  });
  ASSERT_TRUE(AwaitParties(blocked, 1));

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(50);
  pool.ParallelFor(ran_on.size(), [&ran_on](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);

  // The stale helper runs after the release, finds the loop closed and
  // touches nothing of this (by then finished) call.
  release.set_value();
  blocker.get();
}

TEST(ThreadPoolParallelForTest, CallerExceptionWaitsForRunningHelpers) {
  ThreadPool pool(1);
  std::atomic<int> arrived{0};
  std::atomic<bool> helper_done{false};
  const std::thread::id caller = std::this_thread::get_id();
  try {
    // Two indices, two threads: each waits until both are inside the body,
    // so the caller and the helper hold one index each.
    pool.ParallelFor(2, [&](size_t) {
      arrived.fetch_add(1);
      if (!AwaitParties(arrived, 2)) throw std::logic_error("no rendezvous");
      if (std::this_thread::get_id() == caller) {
        throw std::runtime_error("caller");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      helper_done.store(true);
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "caller");
    EXPECT_TRUE(helper_done.load()) << "rethrown while a helper still ran";
  }
}

TEST(ThreadPoolParallelForTest, HelperExceptionReachesTheCaller) {
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  std::atomic<bool> thrown{false};
  std::atomic<bool> other_helper_done{false};
  const std::thread::id caller = std::this_thread::get_id();
  try {
    pool.ParallelFor(3, [&](size_t) {
      arrived.fetch_add(1);
      if (!AwaitParties(arrived, 3)) throw std::logic_error("no rendezvous");
      if (std::this_thread::get_id() == caller) return;
      if (!thrown.exchange(true)) throw std::runtime_error("helper");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      other_helper_done.store(true);
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "helper");
    EXPECT_TRUE(other_helper_done.load())
        << "rethrown while a helper still ran";
  }
}

TEST(ThreadPoolParallelForTest, ThrowsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(4, [&ran](size_t) { ran.fetch_add(1); }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
}

}  // namespace
}  // namespace hunter::common
