// Clean fixture: this file sits under src/common/, where the thread pool
// lives, so the same Submit call that fires in
// violations/src/controller/pool_submit.cc is quiet here.

#include "common/thread_pool.h"

int Run(hunter::common::ThreadPool* pool) {
  return pool->Submit([] { return 1; }).get();
}
