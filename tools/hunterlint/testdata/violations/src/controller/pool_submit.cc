// Fixture: ThreadPool::Submit in library code outside src/common/. The
// rule's directory scope is substring-matched, so this file (under
// .../violations/src/controller/) is in scope even though it lives in
// testdata/.

#include "common/thread_pool.h"

void Fan(hunter::common::ThreadPool& pool, hunter::common::ThreadPool* ptr) {
  pool.Submit([] {}).get();        // flagged: member call on an object
  ptr->Submit([] { return 1; });   // flagged: member call through a pointer
  pool.ParallelFor(4, [](size_t) {});  // legal: the one fork-join path
  // hunterlint: allow(parallel-for-only) fixture: a suppressed call
  ptr->Submit([] {});
}

struct Job {
  void Submit();  // legal: declaring a member named Submit is not a call
};
