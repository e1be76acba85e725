// Fixed-size thread pool owned by the Controller (the paper's
// parallelization scheme, §2.2). Its two users both fork-join through
// ParallelFor: the Controller stress-tests a round's clones concurrently,
// and the Random Forest fits its trees on the same pool, which reaches it
// through the run journal's executor (obs::Journal::executor).

#ifndef HUNTER_COMMON_THREAD_POOL_H_
#define HUNTER_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hunter::common {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  // Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains outstanding work and joins all workers; idempotent. After
  // shutdown, Submit and ParallelFor throw instead of enqueueing tasks
  // nobody will run.
  void Shutdown();

  // Enqueues a task; the returned future yields the task's result. Throws
  // std::runtime_error if the pool has been shut down — without this, a
  // post-shutdown submission would sit in the queue forever and the caller's
  // future.get() would hang.
  template <typename F>
  auto Submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::Submit called after shutdown");
      }
      queue_.emplace([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

  // Fork-join: runs body(i) once for every i in [0, n) and returns when all
  // have finished. The calling thread and up to num_threads() workers claim
  // indices from a shared counter, so the caller is one more worker (a
  // 2-thread pool runs a loop on 3 threads) and the loop completes even
  // when every worker is busy elsewhere. Which thread runs which index is
  // unspecified: determinism is the body's job (each index writes only its
  // own outputs and draws only from its own RNG).
  //
  // If body throws, no further indices are claimed; the first exception is
  // rethrown once every helper that started has stopped, since helpers
  // reference the caller's stack. Throws std::runtime_error after Shutdown,
  // like Submit. Must not be called from one of this pool's workers.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  // workers_ is written only in the constructor and joined after stopping_
  // flips, so it needs no guard; the queue and stop flag are shared with
  // every worker and must only be touched under mutex_ (lint-enforced).
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;  // hunterlint: guarded_by(mutex_)
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;  // hunterlint: guarded_by(mutex_)
};

}  // namespace hunter::common

#endif  // HUNTER_COMMON_THREAD_POOL_H_
