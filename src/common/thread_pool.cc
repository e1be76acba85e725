#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace hunter::common {

namespace {

// One ParallelFor call, shared by the caller and its helper tasks. It lives
// on the heap so a helper still queued when the loop ends can run later
// and find the loop closed; only helpers that joined before the close touch
// `body`, and the caller outlives them.
class ForkJoin {
 public:
  ForkJoin(size_t n, const std::function<void(size_t)>* body)
      : n_(n), body_(body) {}

  // Claims and runs indices until none are left or one has thrown.
  void Work() {
    while (!failed_.load()) {
      const size_t i = next_.fetch_add(1);
      if (i >= n_) return;
      try {
        (*body_)(i);
      } catch (...) {
        Fail(std::current_exception());
      }
    }
  }

  // A helper task: joins the loop unless the caller has already closed it.
  void Help() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      ++active_;
    }
    Work();
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    if (active_ == 0) done_.notify_one();
  }

  // The caller, after its own Work(): turns away helpers that have not
  // started, waits out those that have, then rethrows the first failure.
  void Join() {
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      closed_ = true;
      done_.wait(lock, [this] { return active_ == 0; });
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void Fail(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::move(error);
    failed_.store(true);
  }

  const size_t n_;
  const std::function<void(size_t)>* body_;
  std::atomic<size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::mutex mu_;
  std::condition_variable done_;
  size_t active_ = 0;            // hunterlint: guarded_by(mu_)
  bool closed_ = false;          // hunterlint: guarded_by(mu_)
  std::exception_ptr error_;     // hunterlint: guarded_by(mu_)
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // already shut down (and workers joined)
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  // The caller takes one share, so at most n - 1 helpers have work.
  const size_t helpers = std::min(workers_.size(), n > 0 ? n - 1 : 0);
  auto job = std::make_shared<ForkJoin>(n, &body);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::ParallelFor called after shutdown");
    }
    for (size_t h = 0; h < helpers; ++h) {
      queue_.emplace([job] { job->Help(); });
    }
  }
  for (size_t h = 0; h < helpers; ++h) cv_.notify_one();
  job->Work();
  job->Join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace hunter::common
