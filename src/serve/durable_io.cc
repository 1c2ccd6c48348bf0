#include "serve/durable_io.h"

#include "serve/metrics.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define GFD_HAVE_FSYNC 1
#endif

namespace gfd {

namespace fs = std::filesystem;

namespace {
std::atomic<int64_t> g_crash_at{-1};
std::atomic<int64_t> g_write_points{0};
}  // namespace

void CrashAtWritePoint(int64_t k) {
  g_write_points.store(0);
  g_crash_at.store(k);
}

void DurableWritePoint() {
  const int64_t k = g_crash_at.load(std::memory_order_relaxed);
  if (k >= 0 && g_write_points.fetch_add(1) == k) std::_Exit(kCrashExitCode);
}

bool SyncFile(std::FILE* f) {
  DurableWritePoint();
  if (std::fflush(f) != 0) return false;
#ifdef GFD_HAVE_FSYNC
  FsyncsTotal().Inc();
  if (::fsync(::fileno(f)) != 0) return false;
#endif
  return true;
}

bool SyncClosedFile(const std::string& path) {
  DurableWritePoint();
#ifdef GFD_HAVE_FSYNC
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  FsyncsTotal().Inc();
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

void SyncParentDir(const std::string& path) {
#ifdef GFD_HAVE_FSYNC
  std::filesystem::path dir = fs::path(path).parent_path();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    FsyncsTotal().Inc();
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

bool AtomicWriteFile(const std::string& path, std::string_view content,
                     std::string* error) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error) *error = tmp + ": cannot open for writing";
      return false;
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    // Close explicitly: the final buffered flush can fail (ENOSPC), and
    // the destructor would swallow it -- fsync'ing and renaming a short
    // file would commit a truncated artifact as if it were complete.
    out.close();
    if (out.fail()) {
      if (error) *error = tmp + ": write failed";
      return false;
    }
  }
  if (!SyncClosedFile(tmp)) {
    if (error) *error = tmp + ": fsync failed: " + std::strerror(errno);
    return false;
  }
  DurableWritePoint();
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    if (error) *error = path + ": rename failed: " + ec.message();
    return false;
  }
  SyncParentDir(path);
  return true;
}

std::string MetaCountLine(const MetaCount& c) {
  return "violations " + std::to_string(c.count) + " " +
         std::to_string(c.seq) + " " + std::to_string(c.fingerprint) + "\n";
}

std::optional<MetaCount> ParseMetaCountFields(std::istream& in) {
  MetaCount c;
  if (in >> c.count >> c.seq >> c.fingerprint) return c;
  return std::nullopt;
}

}  // namespace gfd
