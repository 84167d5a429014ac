// Tests for util/file.h: whole-file writes land atomically through a
// same-directory temporary and a rename, leave nothing behind, and fail
// loudly on an unusable directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "util/file.h"

namespace divsec::util {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(WriteFile, RoundTripsAndLeavesNoTemporary) {
  const fs::path dir = fresh_dir("divsec_write_file");
  const std::string path = (dir / "shard.state").string();
  const std::string bytes("binary\0payload\nwith a NUL", 25);
  write_file(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  // Overwriting replaces the content whole.
  write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename(), "shard.state");
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(WriteFile, MissingDirectoryThrows) {
  const fs::path dir = fresh_dir("divsec_write_file_missing");
  fs::remove_all(dir);
  EXPECT_THROW(write_file((dir / "x.state").string(), "x"), std::runtime_error);
  EXPECT_FALSE(fs::exists(dir));
}

TEST(ReadFile, MissingFileThrows) {
  EXPECT_THROW((void)read_file("/nonexistent-dir-xyz/none.state"),
               std::runtime_error);
}

}  // namespace
}  // namespace divsec::util
