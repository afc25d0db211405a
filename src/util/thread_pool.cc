#include "util/thread_pool.h"

#include <sched.h>

namespace wcsd {

size_t ResolveThreadCount(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<size_t>(cpus);
  }
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace wcsd
