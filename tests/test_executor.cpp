// Tests for sim/executor.h — the thread pool under the measurement engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/executor.h"

namespace divsec::sim {
namespace {

TEST(Executor, CoversEveryIndexExactlyOnce) {
  const Executor ex(4);
  EXPECT_EQ(ex.thread_count(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ex.parallel_for(0, kN, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Executor, RespectsRangeOffsets) {
  const Executor ex(3);
  std::vector<std::atomic<int>> hits(10);
  ex.parallel_for(4, 8, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(hits[i].load(), (i >= 4 && i < 8) ? 1 : 0) << i;
}

TEST(Executor, SingleThreadIsPureSerial) {
  const Executor ex(1);
  EXPECT_EQ(ex.thread_count(), 1u);
  // The serial path runs on the calling thread, so strict ordering holds.
  std::vector<std::size_t> order;
  ex.parallel_for(0, 16, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, EmptyRangeIsANoop) {
  const Executor ex(2);
  ex.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(Executor, PropagatesExceptionsToCaller) {
  const Executor ex(4);
  EXPECT_THROW(ex.parallel_for(0, 100,
                               [](std::size_t i) {
                                 if (i == 37)
                                   throw std::runtime_error("job 37 failed");
                               }),
               std::runtime_error);
  // The pool must still be usable after a failed parallel_for.
  std::atomic<int> count{0};
  ex.parallel_for(0, 10, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(Executor, ConcurrentCallersSerializeInsteadOfDeadlocking) {
  // Two threads sharing one executor (the Executor::shared() pattern)
  // must take turns; neither call may lose chunks or hang.
  const Executor ex(4);
  constexpr std::size_t kN = 400;
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  std::thread other([&ex, &hits_b] {
    ex.parallel_for(0, kN, [&hits_b](std::size_t i) { ++hits_b[i]; });
  });
  ex.parallel_for(0, kN, [&hits_a](std::size_t i) { ++hits_a[i]; });
  other.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), 1) << i;
    EXPECT_EQ(hits_b[i].load(), 1) << i;
  }
}

TEST(Executor, ReentrantCallRunsInlineInsteadOfDeadlocking) {
  const Executor ex(4);
  std::vector<std::atomic<int>> inner_hits(64);
  std::atomic<int> outer_hits{0};
  ex.parallel_for(0, 8, [&ex, &inner_hits, &outer_hits](std::size_t) {
    ++outer_hits;
    // Calling back into the same executor degrades to an inline loop.
    ex.parallel_for(0, 64, [&inner_hits](std::size_t i) { ++inner_hits[i]; });
  });
  EXPECT_EQ(outer_hits.load(), 8);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(inner_hits[i].load(), 8) << i;
}

TEST(Executor, DefaultThreadCountHonoursEnvOverride) {
  ::setenv("DIVSEC_THREADS", "3", 1);
  EXPECT_EQ(Executor::default_thread_count(), 3u);
  ::setenv("DIVSEC_THREADS", "not-a-number", 1);
  EXPECT_GE(Executor::default_thread_count(), 1u);
  ::setenv("DIVSEC_THREADS", "1024", 1);
  EXPECT_EQ(Executor::default_thread_count(), kMaxThreads);
  ::unsetenv("DIVSEC_THREADS");
  EXPECT_GE(Executor::default_thread_count(), 1u);
  const Executor ex(0);
  EXPECT_GE(ex.thread_count(), 1u);
}

TEST(Executor, ThreadCountAboveTheBoundIsRejected) {
  // Only rejected values are tried: no test starts a large pool.
  EXPECT_THROW(Executor(kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(Executor(std::size_t{99999999999}), std::invalid_argument);
  ::unsetenv("DIVSEC_THREADS");
  const std::size_t hardware = Executor::default_thread_count();
  // An env value above the bound falls back to the hardware default, as a
  // malformed one does.
  for (const char* huge : {"1025", "99999999999", "18446744073709551615"}) {
    ::setenv("DIVSEC_THREADS", huge, 1);
    EXPECT_EQ(Executor::default_thread_count(), hardware) << huge;
  }
  ::unsetenv("DIVSEC_THREADS");
}

}  // namespace
}  // namespace divsec::sim
