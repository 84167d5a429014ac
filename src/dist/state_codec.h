// state_codec.h — versioned, portable serialization of sweep shard state.
//
// A distributed sweep runs as N independent OS processes, each reducing
// its assigned superblock tasks into core::IndicatorAccumulator partials
// (sim/shard_plan.h). This codec is how those partials cross the process
// boundary: a shard-state file carries the sweep's identity (everything
// the exact reducer must validate before merging), the task range, and
// the raw accumulator states.
//
// Format (version 4), all integers little-endian:
//   magic "DVSWEEPS" | u32 version
//   u32 json_len | meta rendered as JSON  (informational header: `head -2
//     file.state` and `divsec_sweep inspect` are enough to see what a
//     file is; the merge reducer never parses it. Per-cell lists are
//     elided above 64 cells so the header stays O(1) at fleet scale.)
//   five length-prefixed sections (varint length, then payload):
//     meta          — authoritative binary meta, varint-packed; includes
//                     the per-cell achieved-replication list (run-length
//                     coded — empty for fixed-budget sweeps, identity)
//     tasks         — task-id list, delta + varint (strictly ascending)
//     accumulators  — one packed accumulator blob per task, in order
//     cost          — per-cell cost model (dist/cost_model.h); 0 or
//                     `cells` entries
//     rounds        — adaptive round log + per-cell termination rounds
//                     (provenance, not identity)
//   u64 FNV-1a checksum of every preceding byte (fixed-width)
//
// v4 packed primitives: LEB128 varints for integers; "varf64" for
// doubles (varint of the byte-swapped IEEE-754 bit pattern — clean
// values like a 2160-hour horizon or a zeroed moment cost 1–3 bytes,
// noisy ones at most 10); zero-run-length coding for sparse count
// arrays (survival bins); zigzag-delta coding for the monotone curve
// sums; value-run-length coding for the flat achieved/termination
// lists. Together these make shard files ≥ 4× smaller than the
// fixed-width equivalent at 10^4 cells (uncompressed_equivalent_bytes
// computes that baseline; `divsec_sweep inspect` and the bench_e5 codec
// phase gate on it), which is what keeps shard flushes cheap.
//
// Version 2 replaced version 1's contiguous [task_begin, task_end) range
// with the explicit task-id list; version 3 added the adaptive sections;
// version 4 replaced the P² sketch blobs with t-digest centroids, added
// the compromised-ratio curve section of each accumulator, and switched
// the payload to the packed encoding above. Older versions are rejected
// with a "regenerate shards" error — shards are cheap by construction.
//
// One field walk per state: each serialized type (OnlineStats, TDigest,
// StreamingSurvival, CensoredTimeAccumulator, RatioCurveAccumulator,
// IndicatorAccumulator, the meta block, the tasks/cost/rounds sections)
// names its fields, in file order, in exactly one function of
// state_codec.cpp. Four visitors run those walks: the packed writer
// (encode), the reader (decode), a JSON writer (accumulator_json) and a
// fixed-width byte counter (uncompressed_equivalent_bytes). meta_json is
// a separate rendering (it elides long lists and adds fingerprints).
//
// Guarantees:
//   * exact round-trip — decode(encode(s)) restores every accumulator
//     bit for bit, and encode(decode(bytes)) == bytes (byte-stable);
//   * canonical decode — the reader accepts only payload bytes the
//     encoder writes: overlong varints, flag bytes other than 0/1,
//     out-of-range policy bytes, a threads value above 2^32-1, and zero
//     or value runs split in two all throw. So for any bytes decode
//     accepts, re-encoding reproduces every payload byte. (The JSON
//     header is informational: decode skips it unread, because older v4
//     builds rendered it differently, and encode re-renders it.)
//   * portability — no struct dumps, no host endianness, no padding;
//   * integrity — truncation (at any section boundary or inside one),
//     magic/version mismatch, checksum damage, section-length
//     inconsistencies, and structurally corrupt section shapes (a
//     per-cell list that is neither empty nor `cells` long, a count the
//     remaining input cannot hold, a task list that is not strictly
//     ascending) all throw. The decode checks live with the field they
//     constrain, as arguments of the walk's primitives; only the reader
//     enforces them, so encode is exactly as lenient as before.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/indicator_accumulator.h"
#include "dist/cost_model.h"
#include "scenario/scenario_builder.h"

namespace divsec::dist {

/// Codec version of the shard-state format. Bump on any layout change;
/// decode rejects versions it does not speak. v2: explicit task-id lists
/// (elastic shard plans) + embedded per-cell cost model. v3: adaptive
/// sweeps — per-cell achieved-replication counts in the meta (identity),
/// round log + termination rounds appended (provenance). v4: t-digest
/// sketches + ratio-curve accumulators, varint/delta/run-length packed
/// sections behind the same framing.
inline constexpr std::uint32_t kStateFormatVersion = 4;

/// Everything that identifies a sweep (what must match for partials to
/// be mergeable) plus per-shard provenance (which shard, how long it
/// took — carried for reporting, excluded from the identity).
struct SweepMeta {
  // -- sweep identity: covered by sweep_fingerprint() -----------------
  std::string preset;                             // scenario preset name
  std::vector<scenario::VariantPolicy> policies;  // one sweep cell each
  std::string threat;                             // threat profile name
  std::uint64_t seed = 0;
  std::uint64_t replications = 0;
  std::uint64_t replication_block = 0;  // resolved, > 0
  std::uint64_t superblock = 0;         // resolved, > 0
  std::uint64_t survival_bins = 0;
  double horizon_hours = 0.0;
  std::uint64_t cells = 0;
  /// Per-cell achieved replication counts of an adaptive sweep — the
  /// reproducibility record: cell c's accumulators cover exactly
  /// achieved[c] replications, i.e. its first ceil(achieved[c] /
  /// superblock) superblock tasks. Empty for fixed-budget sweeps (every
  /// cell covers `replications`). Non-empty lists are part of the
  /// identity: a merge/replay must agree on where every cell stopped, so
  /// the fingerprint covers them. Each entry is in (0, replications].
  std::vector<std::uint64_t> achieved;

  // -- per-file provenance: not part of the identity ------------------
  std::uint64_t shard = 0;
  std::uint64_t shard_count = 1;
  bool merged = false;  // true for the reducer's merged-state output
  double wall_ms = 0.0;
  std::uint32_t threads = 1;
};

/// FNV-1a hash of the identity fields (format version included): two
/// shard states merge only when their fingerprints agree.
[[nodiscard]] std::uint64_t sweep_fingerprint(const SweepMeta& meta);

/// One shard's serialized payload: the accumulator partial of every task
/// in `tasks` (strictly ascending task ids — contiguous for the balanced
/// `--shard i/K` split, arbitrary for a cost-weighted `--tasks` list),
/// plus the per-cell cost measured while the shard ran. For merged
/// states (meta.merged) the "tasks" are the per-cell merged accumulators
/// and the list is [0, cells).
struct ShardState {
  SweepMeta meta;
  std::vector<std::uint64_t> tasks;
  std::vector<core::IndicatorAccumulator::State> partials;  // one per task
  CostModel cost;
  /// Adaptive provenance (both empty for fixed-budget sweeps):
  /// the round loop's log, and each cell's termination round
  /// (1-based; 0 or cells entries).
  std::vector<core::RoundLog> rounds;
  std::vector<std::uint64_t> cell_rounds;
};

/// Serialize to the versioned byte format. Deterministic: equal states
/// encode to equal bytes.
[[nodiscard]] std::string encode_shard_state(const ShardState& state);

/// Parse and validate (magic, version, checksum, structural bounds,
/// canonical payload bytes). Throws std::runtime_error on corrupt,
/// non-canonical or foreign bytes.
[[nodiscard]] ShardState decode_shard_state(std::string_view bytes);

/// The JSON rendering of a meta block (the embedded header). Per-cell
/// lists (policies, achieved) are elided above 64 cells — the binary
/// meta stays authoritative; the header only has to identify the file.
[[nodiscard]] std::string meta_json(const SweepMeta& meta);

/// Byte sizes of a v4 file's framing and sections, read from the
/// length prefixes without decoding the payloads (the checksum, magic
/// and version are still validated). `divsec_sweep inspect` prints
/// these so codec-size regressions are visible from the CLI.
struct StateSectionSizes {
  std::size_t header = 0;  // magic + version + JSON info header
  std::size_t meta = 0;    // length prefix + payload, like every section
  std::size_t tasks = 0;
  std::size_t accumulators = 0;
  std::size_t cost = 0;
  std::size_t rounds = 0;  // round log + termination rounds
  std::size_t checksum = 8;

  [[nodiscard]] std::size_t total() const noexcept {
    return header + meta + tasks + accumulators + cost + rounds + checksum;
  }
};
[[nodiscard]] StateSectionSizes state_section_sizes(std::string_view bytes);

/// Size of the same state in the fixed-width (pre-v4, 8-bytes-per-number)
/// encoding — the "uncompressed equivalent" the v4 compression ratio is
/// measured against (inspect's breakdown, the bench_e5 codec gate).
[[nodiscard]] std::size_t uncompressed_equivalent_bytes(const ShardState& state);

/// Exact JSON dump of one accumulator state (doubles at full %.17g
/// round-trip precision) — the human-readable side of the codec, used by
/// `divsec_sweep inspect`.
[[nodiscard]] std::string accumulator_json(
    const core::IndicatorAccumulator::State& state);

/// File I/O shims; throw std::runtime_error on I/O failure.
void write_shard_state(const std::string& path, const ShardState& state);
[[nodiscard]] ShardState read_shard_state(const std::string& path);

}  // namespace divsec::dist
