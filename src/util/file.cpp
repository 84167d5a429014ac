#include "util/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace divsec::util {

void write_file(const std::string& path, std::string_view bytes) {
  // Unique per process and call, so concurrent writers of one path never
  // share a temporary; "x" refuses to reuse a leftover.
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wbx");
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // The data must be on disk before the rename is, or a power loss could
  // leave the final name pointing at an empty or partial file.
  const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const int closed = std::fclose(f);  // unconditionally: no fd leak
  if (written != bytes.size() || !synced || closed != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("short write: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename into place: " + path);
  }
  // Persist the rename itself. Best effort: some filesystems refuse to
  // fsync a directory, and the file is complete under its name either way.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open: " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw std::runtime_error("read error: " + path);
  return bytes;
}

}  // namespace divsec::util
