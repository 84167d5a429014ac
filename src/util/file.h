// file.h — the one place the project reads and writes whole files.
//
// Shard states, task plans, metrics sidecars, traces and report CSVs all
// leave the process through write_file, so a process killed mid-write
// (an OOM-killed or preempted shard) can never leave a truncated file at
// the final path for a later merge to trip over.
#pragma once

#include <string>
#include <string_view>

namespace divsec::util {

/// Write `bytes` to `path` atomically: they go to a fresh temporary file
/// in the same directory, which is fsync'ed and then renamed over `path`
/// (the directory is fsync'ed after, where the filesystem allows). A
/// reader sees either the old file (or none) or the complete new one,
/// after a killed process and after an OS crash alike. Throws
/// std::runtime_error if the directory is missing or unwritable or the
/// write fails; the temporary is removed on every failure.
void write_file(const std::string& path, std::string_view bytes);

/// The whole content of `path`; std::runtime_error if it cannot be
/// opened or read.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace divsec::util
