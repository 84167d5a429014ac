// example_args.h — the examples' one reader of positional arguments.
//
// Every example takes its numbers (a seed, a node count) through
// util::to_u64, the grammar the CLIs use: a non-numeric, signed or
// overflowing argument exits with a message instead of running as 0.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/strict_text.h"

namespace divsec::examples {

/// argv[i] as a count, or `fallback` when absent; exits 2 naming the
/// argument when it is not a count.
inline std::uint64_t u64_arg(int argc, char** argv, int i, const char* what,
                             std::uint64_t fallback) {
  if (argc <= i) return fallback;
  if (const auto v = util::to_u64(argv[i])) return *v;
  std::fprintf(stderr, "%s: bad number for %s: %s\n", argv[0], what, argv[i]);
  std::exit(2);
}

}  // namespace divsec::examples
