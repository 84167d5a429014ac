// host_probe.h — a fixed reference job that reads the host's current speed.
//
// The benchmark shares a host whose speed drifts by up to 40% over minutes
// (other tenants' load on shared cores and caches, invisible to the guest
// as steal time), and the drift moves every workload at once. The probe
// is code of the benchmark's own, independent of divsec, so a change to
// the program never changes what it measures: its wall time reads the
// host alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The probe's lower-quartile time on a quiet host: the 4-vCPU KVM guest
/// (Xeon, AVX-512, 2.0 GHz nominal) the benchmark's bounds were set on.
/// Times scaled by kProbeReferenceS / (this run's lower quartile) read as
/// seconds on that host.
inline constexpr double kProbeReferenceS = 0.035;

class HostProbe {
 public:
  /// `threads` workers, each with its own 1 MiB table (allocated and
  /// touched here, not in the timed call).
  explicit HostProbe(std::size_t threads);

  /// Wall seconds of one pass of the fixed job on every worker at once:
  /// SplitMix64 draws, data-dependent read-modify-writes into the table
  /// and a data-dependent branch, like the campaign kernel's mix.
  double seconds();

  /// Bytes the tables hold resident for the probe's whole life.
  [[nodiscard]] std::size_t table_bytes() const;

 private:
  std::vector<std::vector<std::uint32_t>> tables_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
