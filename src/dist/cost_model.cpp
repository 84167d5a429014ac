#include "dist/cost_model.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>

#include "dist/fnv.h"
#include "dist/state_codec.h"
#include "util/file.h"
#include "util/strict_text.h"

namespace divsec::dist {

void CostModel::merge(const CostModel& other) {
  if (other.cells.empty()) return;
  if (cells.empty()) {
    cells = other.cells;
    return;
  }
  if (cells.size() != other.cells.size())
    throw std::invalid_argument(
        "CostModel::merge: cell counts disagree (models from different "
        "sweeps?)");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].replications += other.cells[c].replications;
    cells[c].seconds += other.cells[c].seconds;
  }
}

double CostModel::sec_per_rep(std::size_t cell) const {
  if (cell < cells.size() && cells[cell].replications > 0 &&
      cells[cell].seconds > 0.0)
    return cells[cell].seconds / static_cast<double>(cells[cell].replications);
  std::uint64_t reps = 0;
  double seconds = 0.0;
  for (const auto& c : cells) {
    if (c.replications == 0 || !(c.seconds > 0.0)) continue;
    reps += c.replications;
    seconds += c.seconds;
  }
  return reps > 0 ? seconds / static_cast<double>(reps) : 1.0;
}

std::uint64_t cost_fingerprint(const SweepMeta& meta) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a_mix(h, meta.preset);
  fnv1a_mix(h, meta.threat);
  fnv1a_mix(h, static_cast<std::uint64_t>(meta.policies.size()));
  for (const auto p : meta.policies)
    fnv1a_mix(h, static_cast<std::uint64_t>(p));
  fnv1a_mix(h, meta.seed);
  fnv1a_mix(h, std::bit_cast<std::uint64_t>(meta.horizon_hours));
  fnv1a_mix(h, meta.cells);
  return h;
}

std::vector<std::vector<std::uint64_t>> cost_weighted_assignment(
    const sim::ShardPlan& plan, const CostModel& cost, std::size_t shards) {
  if (shards == 0)
    throw std::invalid_argument("cost_weighted_assignment: need >= 1 shard");
  const std::size_t tasks = plan.task_count();
  std::vector<double> estimate(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    const sim::ShardPlan::Task task = plan.task(t);
    estimate[t] = cost.sec_per_rep(task.group) *
                  static_cast<double>(task.end - task.begin);
  }

  // LPT: place tasks in descending estimated cost (ties by ascending id
  // for determinism) onto the least-loaded shard so far.
  std::vector<std::size_t> order(tasks);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (estimate[a] != estimate[b]) return estimate[a] > estimate[b];
    return a < b;
  });

  using Load = std::pair<double, std::size_t>;  // (seconds, shard)
  std::priority_queue<Load, std::vector<Load>, std::greater<Load>> heap;
  for (std::size_t s = 0; s < shards; ++s) heap.push({0.0, s});

  std::vector<std::vector<std::uint64_t>> out(shards);
  for (const std::size_t t : order) {
    auto [load, shard] = heap.top();
    heap.pop();
    out[shard].push_back(t);
    heap.push({load + estimate[t], shard});
  }
  for (auto& list : out) std::sort(list.begin(), list.end());
  return out;
}

std::vector<double> assignment_cost(
    const sim::ShardPlan& plan, const CostModel& cost,
    const std::vector<std::vector<std::uint64_t>>& assignment) {
  std::vector<double> out(assignment.size(), 0.0);
  for (std::size_t s = 0; s < assignment.size(); ++s)
    for (const std::uint64_t t : assignment[s]) {
      const sim::ShardPlan::Task task = plan.task(t);
      out[s] += cost.sec_per_rep(task.group) *
                static_cast<double>(task.end - task.begin);
    }
  return out;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

void require_fingerprint(std::uint64_t expected, std::uint64_t actual,
                         const std::string& what) {
  if (expected == actual) return;
  throw std::invalid_argument(
      what + " references a different sweep (fingerprint " +
      fingerprint_hex(actual) + ", this sweep is " + fingerprint_hex(expected) +
      "): the preset/policies/threat/seed/horizon flags must match the run "
      "that produced it");
}

std::string encode_task_plan(const TaskPlan& plan) {
  std::string out = "divsec-tasks v1\n";
  out += "fingerprint " + fingerprint_hex(plan.fingerprint) + "\n";
  out += "shards " + std::to_string(plan.shards.size()) + "\n";
  out += "tasks " + std::to_string(plan.task_count()) + "\n";
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    out += "shard " + std::to_string(s) + " " +
           std::to_string(plan.shards[s].size());
    for (const std::uint64_t t : plan.shards[s])
      out += " " + std::to_string(t);
    out += "\n";
  }
  return out;
}

TaskPlan decode_task_plan(std::string_view text) {
  const auto fail = [](const std::string& why) -> void {
    throw std::runtime_error("task plan: " + why);
  };

  // Every line ends in '\n', so the last piece is empty.
  const std::vector<std::string_view> lines = util::split(text, '\n');
  if (lines[0] != "divsec-tasks v1")
    fail("not a divsec task-plan file (missing 'divsec-tasks v1' header)");
  // Header line i is "<key> <value>".
  const auto header = [&lines](std::size_t i, std::string_view key,
                               int base) -> std::optional<std::uint64_t> {
    if (i >= lines.size()) return std::nullopt;
    const std::vector<std::string_view> words = util::split(lines[i], ' ');
    if (words.size() != 2 || words[0] != key) return std::nullopt;
    return util::to_u64(words[1], base);
  };

  TaskPlan plan;
  const auto fingerprint = header(1, "fingerprint", 16);
  if (!fingerprint) fail("malformed fingerprint line");
  plan.fingerprint = *fingerprint;
  const auto shards = header(2, "shards", 10);
  if (!shards || *shards == 0) fail("malformed shard count");
  // Bounds before any allocation: one line per shard, and no more tasks
  // than bytes, so a forged count cannot drive resize() into bad_alloc.
  if (lines.size() < 6 || *shards != lines.size() - 5)
    fail("shard count does not match the file's shard lines");
  const auto tasks = header(3, "tasks", 10);
  if (!tasks) fail("malformed task count");
  if (*tasks > text.size()) fail("task count exceeds the file size");

  std::vector<bool> seen(*tasks, false);
  plan.shards.resize(*shards);
  for (std::uint64_t s = 0; s < *shards; ++s) {
    // "shard <s> <count> <task>..."
    const std::vector<std::string_view> words = util::split(lines[4 + s], ' ');
    if (words.size() < 3 || words[0] != "shard" || util::to_u64(words[1]) != s ||
        util::to_u64(words[2]) != words.size() - 3)
      fail("malformed shard line " + std::to_string(s));
    auto& list = plan.shards[s];
    list.reserve(words.size() - 3);
    for (std::size_t w = 3; w < words.size(); ++w) {
      const auto t = util::to_u64(words[w]);
      if (!t) fail("malformed task id in shard line " + std::to_string(s));
      if (*t >= *tasks) fail("task " + std::to_string(*t) + " outside the sweep");
      if (!list.empty() && *t <= list.back())
        fail("task list of shard " + std::to_string(s) +
             " is not strictly ascending");
      if (seen[*t])
        fail("task " + std::to_string(*t) + " assigned to more than one shard");
      seen[*t] = true;
      list.push_back(*t);
    }
  }
  for (std::uint64_t t = 0; t < *tasks; ++t)
    if (!seen[t])
      fail("task " + std::to_string(t) + " is not assigned to any shard");
  // Byte-canonical, like the state codec: any other spelling of the same
  // plan (leading zeros, upper-case hex, trailing bytes, a missing final
  // newline) is rejected, so one plan has one file.
  if (encode_task_plan(plan) != text)
    fail("not in canonical form (re-encoding differs)");
  return plan;
}

void write_task_plan(const std::string& path, const TaskPlan& plan) {
  util::write_file(path, encode_task_plan(plan));
}

TaskPlan read_task_plan(const std::string& path) {
  return decode_task_plan(util::read_file(path));
}

}  // namespace divsec::dist
