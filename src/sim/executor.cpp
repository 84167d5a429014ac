#include "sim/executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/strict_text.h"

namespace divsec::sim {

namespace {

/// Pool telemetry (serial/reentrant fallbacks are deliberately not
/// counted — they are the absence of pool work). Handles are resolved
/// once; every hot-path touch is a relaxed striped add.
obs::Counter& jobs_counter() {
  static obs::Counter& c = obs::counter("sim.executor.jobs");
  return c;
}
obs::Counter& chunks_counter() {
  static obs::Counter& c = obs::counter("sim.executor.chunks");
  return c;
}
obs::Counter& idle_counter() {
  static obs::Counter& c = obs::counter("sim.executor.idle_ns");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("sim.executor.queue_depth_max");
  return g;
}
obs::Histogram& chunk_latency_hist() {
  static obs::Histogram& h = obs::histogram("sim.executor.chunk_ns");
  return h;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// One parallel_for invocation shared between the caller and the workers.
struct ForJob {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunks = 0;

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t chunks_remaining = 0;
  std::exception_ptr error;

  /// Contiguous chunk c of the static split of [begin, end) into
  /// `chunks` pieces.
  [[nodiscard]] std::pair<std::size_t, std::size_t> chunk(std::size_t c) const {
    const std::size_t n = end - begin;
    const std::size_t lo = begin + n * c / chunks;
    const std::size_t hi = begin + n * (c + 1) / chunks;
    return {lo, hi};
  }

  void run_chunk(std::size_t c) noexcept {
    std::exception_ptr err;
    const auto started = std::chrono::steady_clock::now();
    try {
      const auto [lo, hi] = chunk(c);
      for (std::size_t i = lo; i < hi; ++i) (*body)(i);
    } catch (...) {
      err = std::current_exception();
    }
    chunk_latency_hist().observe(elapsed_ns(started));
    // Notify under the lock: the job lives on the caller's stack, so the
    // last completing chunk must not touch it after the caller can wake.
    const std::lock_guard<std::mutex> lock(mutex);
    if (err && !error) error = err;
    if (--chunks_remaining == 0) done_cv.notify_all();
  }
};

/// The pool this thread is currently executing inside (as caller or
/// worker). Lets a job that calls back into its own executor degrade to
/// an inline serial loop instead of deadlocking on the submission mutex.
thread_local const void* g_active_pool = nullptr;

}  // namespace

struct Executor::Pool {
  // Serializes whole parallel_for invocations: the pool tracks a single
  // in-flight job, so concurrent callers (e.g. two threads measuring via
  // Executor::shared()) must take turns rather than clobber each other.
  std::mutex submission_mutex;
  std::mutex mutex;
  std::condition_variable work_cv;
  std::vector<std::thread> workers;
  // The pending chunk assignments of the current job (worker side).
  ForJob* job = nullptr;
  std::size_t next_chunk = 0;
  bool shutting_down = false;

  explicit Pool(std::size_t worker_count) {
    workers.reserve(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w)
      workers.emplace_back([this] { worker_loop(); });
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      shutting_down = true;
    }
    work_cv.notify_all();
    for (auto& t : workers) t.join();
  }

  void worker_loop() {
    g_active_pool = this;
    for (;;) {
      ForJob* my_job = nullptr;
      std::size_t my_chunk = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        const auto wait_started = std::chrono::steady_clock::now();
        work_cv.wait(lock, [this] { return shutting_down || job != nullptr; });
        idle_counter().add(elapsed_ns(wait_started));
        if (shutting_down) return;
        my_job = job;
        my_chunk = next_chunk++;
        if (next_chunk >= my_job->chunks) job = nullptr;  // all chunks handed out
      }
      my_job->run_chunk(my_chunk);
    }
  }

  /// Publish chunks [1, job.chunks) to the workers; chunk 0 stays with
  /// the caller.
  void submit(ForJob& j) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      job = &j;
      next_chunk = 1;
      if (next_chunk >= j.chunks) job = nullptr;
    }
    work_cv.notify_all();
  }
};

Executor::Executor(std::size_t threads)
    : threads_(threads == 0 ? default_thread_count() : threads) {
  if (threads > kMaxThreads)
    throw std::invalid_argument("Executor: thread count must be <= " +
                                std::to_string(kMaxThreads) + ", got " +
                                std::to_string(threads));
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_ - 1);
}

Executor::~Executor() = default;

void Executor::parallel_for(std::size_t begin, std::size_t end,
                            const std::function<void(std::size_t)>& body) const {
  if (!body) throw std::invalid_argument("parallel_for: empty body");
  if (begin >= end) return;

  const std::size_t n = end - begin;
  // Serial paths: threads == 1, nothing to split, or a reentrant call
  // from inside one of this executor's own jobs (running it inline avoids
  // deadlocking on the submission mutex / starving the worker).
  if (!pool_ || n == 1 || g_active_pool == pool_.get()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  ForJob job;
  job.body = &body;
  job.begin = begin;
  job.end = end;
  job.chunks = threads_ < n ? threads_ : n;
  job.chunks_remaining = job.chunks;
  jobs_counter().add(1);
  chunks_counter().add(job.chunks);
  queue_depth_gauge().record_max(job.chunks);

  const std::lock_guard<std::mutex> submission(pool_->submission_mutex);
  const void* previous_pool = g_active_pool;
  g_active_pool = pool_.get();
  pool_->submit(job);
  job.run_chunk(0);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(job.mutex);
    job.done_cv.wait(lock, [&job] { return job.chunks_remaining == 0; });
    g_active_pool = previous_pool;
    if (job.error) std::rethrow_exception(job.error);
  }
}

std::size_t Executor::default_thread_count() {
  // A malformed, zero or above-bound value falls through to the hardware
  // default.
  if (const char* env = std::getenv("DIVSEC_THREADS"))
    if (const auto v = util::to_u64(env); v && *v >= 1 && *v <= kMaxThreads)
      return static_cast<std::size_t>(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

Executor& Executor::shared() {
  static Executor instance(0);
  return instance;
}

}  // namespace divsec::sim
