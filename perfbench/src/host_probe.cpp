#include "host_probe.h"

#include <chrono>
#include <thread>

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 18;  // 1 MiB
constexpr std::size_t kDraws = std::size_t{1} << 21;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t job(std::vector<std::uint32_t>& table, std::uint64_t seed) {
  std::uint64_t state = seed, acc = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::uint64_t r = splitmix64(state);
    std::uint32_t& slot = table[(r ^ acc) & (kTableWords - 1)];
    if (slot & 1) slot += static_cast<std::uint32_t>(r >> 32);
    else slot ^= static_cast<std::uint32_t>(r >> 7);
    acc += slot;
  }
  return acc;
}

}  // namespace

HostProbe::HostProbe(std::size_t threads)
    : tables_(threads, std::vector<std::uint32_t>(kTableWords, 1)) {}

double HostProbe::seconds() {
  std::vector<std::uint64_t> out(tables_.size());
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < tables_.size(); ++t)
      workers.emplace_back([&, t] { out[t] = job(tables_[t], t + 1); });
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const std::uint64_t v : out) sink_ += v;
  return s;
}

std::size_t HostProbe::table_bytes() const {
  return tables_.size() * kTableWords * sizeof(std::uint32_t);
}

}  // namespace perfbench
