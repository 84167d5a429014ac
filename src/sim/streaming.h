// streaming.h — deterministic blocked map-reduce on an Executor.
//
// The streaming measurement backends reduce (group × index-range)
// workloads into one accumulator per group without materializing
// per-index samples. The index range of every group is split into
// fixed-size blocks; each block folds locally into a fresh accumulator,
// and the block accumulators merge into the group result in ascending
// block order. Two contracts make this bit-identical for any thread
// count:
//  * the block size must not depend on the thread count (it is part of
//    the caller's determinism contract, like the RNG stream derivation);
//  * a group's block partials merge in ascending block order, one at a
//    time, into the group's accumulator.
//
// One reducer does all of it. The (group, block) items form a single work
// queue, claimed in ascending order from one atomic counter, so skewed
// group costs cannot idle the pool and a short list of groups still
// spreads over every thread. Items are numbered block-major (block 0 of
// every group, then block 1 of every group, ...), so threads claiming
// back to back mostly work on different groups. A finished block partial
// merges into its group as soon as every lower block of that group has
// merged; an early finisher parks its partial until then. A thread claims
// its next item only while fewer partials are parked than there are
// workers, so a stalled block (a slow replication, a preempted thread)
// can never park the rest of its group: at most 2 × (workers − 1)
// partials are ever parked, and live memory is
// O(groups + threads × block-state), never O(groups × count).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/executor.h"

namespace divsec::sim {

namespace streaming_detail {
/// Fold telemetry. The reducer already reads the clock per block for the
/// dist:: cost model; the histogram reuses those numbers so the
/// CostModel and the obs catalog can never disagree about fold cost.
inline obs::Counter& blocks_counter() {
  static obs::Counter& c = obs::counter("sim.streaming.blocks");
  return c;
}
inline obs::Counter& groups_counter() {
  static obs::Counter& c = obs::counter("sim.streaming.groups");
  return c;
}
inline obs::Histogram& group_fold_hist() {
  static obs::Histogram& h = obs::histogram("sim.streaming.group_fold_ns");
  return h;
}
}  // namespace streaming_detail

/// Default replications-per-block of the streaming backends. Small enough
/// that parked partials stay trivial, large enough that per-block
/// overhead (accumulator construction, clock pair, merge) vanishes
/// against the simulation work.
inline constexpr std::size_t kDefaultReductionBlock = 256;

/// Reduce indices [0, count) of each of `groups` groups into one
/// accumulator per group. make(g) builds an empty accumulator for group
/// g; fold(acc, g, i) folds index i of group g into acc; Acc::merge(const
/// Acc&) combines block partials. Group g's result is make(g) merged with
/// its block partials in ascending block order — for any thread count
/// and any claim interleaving.
///
/// group_seconds, when non-null, receives each group's fold time in
/// seconds (resized to `groups`): the sum of its block times, one clock
/// pair per block. This is the measurement feed of the dist:: cost model.
template <typename Acc, typename Make, typename Fold>
[[nodiscard]] std::vector<Acc> reduce_groups(
    const Executor& executor, std::size_t groups, std::size_t count,
    std::size_t block, const Make& make, const Fold& fold,
    std::vector<double>* group_seconds = nullptr) {
  if (block == 0) block = kDefaultReductionBlock;
  const std::size_t nblocks = count == 0 ? 0 : (count + block - 1) / block;

  std::vector<Acc> out;
  out.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) out.push_back(make(g));
  if (group_seconds) group_seconds->assign(groups, 0.0);
  const std::size_t items = groups * nblocks;
  if (items == 0) return out;

  // Merge state, under one lock: per group, the number of blocks merged
  // into out[g] and the summed fold time of its blocks; block partials
  // that finished before a lower block of their group wait in `parked`.
  std::mutex mu;
  std::condition_variable drained;
  std::vector<std::size_t> merged(groups, 0);
  std::vector<std::uint64_t> fold_ns(groups, 0);
  std::vector<std::pair<std::size_t, Acc>> parked;  // (item, partial)
  // Any throw inside an item — make, fold, or a merge/park under the lock
  // — ends every worker's claims: that block never merges, so threads
  // waiting for parked partials to drain would wait forever. The executor
  // rethrows the exception.
  bool failed = false;

  // Fold block b of group g, then merge or park the partial.
  const auto run_item = [&](std::size_t j) {
    const std::size_t g = j % groups;
    const std::size_t b = j / groups;
    const auto start = std::chrono::steady_clock::now();
    Acc partial = make(g);
    const std::size_t hi = std::min(count, (b + 1) * block);
    for (std::size_t i = b * block; i < hi; ++i) fold(partial, g, i);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    const std::lock_guard<std::mutex> lock(mu);
    fold_ns[g] += ns;
    if (b != merged[g]) {
      parked.emplace_back(j, std::move(partial));
      return;
    }
    // Merge this partial, then every parked successor it unblocks.
    out[g].merge(partial);
    std::size_t done = b + 1;
    const std::size_t parked_before = parked.size();
    for (auto it = parked.begin(); it != parked.end();) {
      if (it->first != done * groups + g) {
        ++it;
        continue;
      }
      out[g].merge(it->second);
      parked.erase(it);
      it = parked.begin();
      ++done;
    }
    merged[g] = done;
    if (merged[g] == nblocks) {
      streaming_detail::group_fold_hist().observe(fold_ns[g]);
      if (group_seconds)
        (*group_seconds)[g] = static_cast<double>(fold_ns[g]) * 1e-9;
    }
    if (parked.size() != parked_before) drained.notify_all();
  };

  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::min(executor.thread_count(), items);
  executor.parallel_for(0, workers, [&](std::size_t) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        drained.wait(lock, [&] { return failed || parked.size() < workers; });
        if (failed) return;
      }
      const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
      if (j >= items) return;
      try {
        run_item(j);
      } catch (...) {
        // run_item's lock was released while unwinding.
        const std::lock_guard<std::mutex> lock(mu);
        failed = true;
        drained.notify_all();
        throw;
      }
    }
  });
  streaming_detail::blocks_counter().add(items);
  streaming_detail::groups_counter().add(groups);
  return out;
}

/// Single-group convenience: reduce [0, count) into one accumulator.
/// fold(acc, i) folds index i. A null executor runs the identical block
/// schedule serially (same merge sequence, same results).
template <typename Acc, typename Make, typename Fold>
[[nodiscard]] Acc blocked_reduce(const Executor* executor, std::size_t count,
                                 std::size_t block, const Make& make,
                                 const Fold& fold) {
  static const Executor serial{1};
  auto out = reduce_groups<Acc>(
      executor ? *executor : serial, 1, count, block,
      [&make](std::size_t) { return make(); },
      [&fold](Acc& acc, std::size_t, std::size_t i) { fold(acc, i); });
  return std::move(out.front());
}

}  // namespace divsec::sim
