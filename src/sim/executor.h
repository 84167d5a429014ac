// executor.h — a small thread pool for embarrassingly parallel index
// ranges.
//
// The measurement workloads (replications × configuration cells) are
// independent jobs whose outputs land in preassigned slots, so the only
// parallel primitive the library needs is a parallel_for over an index
// range with static chunking. Determinism is the caller's contract: a
// job's randomness must derive from its *index* (per-(seed, stream) Rng
// construction), never from thread identity or execution order, so
// results are bit-identical for any thread count.
//
// Thread count resolution: an explicit constructor argument wins; 0 means
// "the default", which honours the DIVSEC_THREADS environment variable
// and falls back to std::thread::hardware_concurrency(). A thread count
// of 1 is a pure serial path — no worker threads are spawned and
// parallel_for degenerates to a plain loop on the calling thread. A
// requested count above kMaxThreads is refused before any thread starts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace divsec::sim {

/// Upper bound on a requested thread count: an explicit count above it is
/// rejected, and a DIVSEC_THREADS value above it is ignored.
inline constexpr std::size_t kMaxThreads = 1024;

class Executor {
 public:
  /// threads == 0 resolves to default_thread_count(). Throws
  /// std::invalid_argument if threads > kMaxThreads, before any thread
  /// is started.
  explicit Executor(std::size_t threads = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }

  /// Invoke body(i) for every i in [begin, end). The range is split into
  /// thread_count() contiguous chunks (static chunking); the calling
  /// thread works on the first chunk. Blocks until every index completed.
  /// The first exception thrown by any body invocation is rethrown on the
  /// calling thread (remaining chunks still run to completion first).
  /// Concurrent parallel_for calls on one executor serialize against
  /// each other; a reentrant call from inside one of this executor's own
  /// jobs degrades to an inline serial loop (no nested parallelism).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body) const;

  /// DIVSEC_THREADS if set to an integer in [1, kMaxThreads], else
  /// hardware_concurrency(), else 1.
  [[nodiscard]] static std::size_t default_thread_count();

  /// Process-wide executor with the default thread count, constructed on
  /// first use. Measurement entry points fall back to this when no
  /// executor is supplied.
  [[nodiscard]] static Executor& shared();

 private:
  struct Pool;
  std::size_t threads_;
  std::unique_ptr<Pool> pool_;  // null when threads_ == 1
};

/// Shared executor-or-serial dispatch for low-level replication
/// controllers whose null default means "strictly serial".
inline void for_each_index(const Executor* executor, std::size_t begin,
                           std::size_t end,
                           const std::function<void(std::size_t)>& body) {
  if (executor) {
    executor->parallel_for(begin, end, body);
  } else {
    for (std::size_t i = begin; i < end; ++i) body(i);
  }
}

}  // namespace divsec::sim
