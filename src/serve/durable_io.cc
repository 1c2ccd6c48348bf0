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
std::atomic<int64_t> g_fail_at{-1};
std::atomic<int64_t> g_write_points{0};

// fsync without the write point: the callers pass theirs first.
bool FsyncNoPoint(int fd) {
#ifdef GFD_HAVE_FSYNC
  FsyncsTotal().Inc();
  return ::fsync(fd) == 0;
#else
  (void)fd;
  return true;
#endif
}
}  // namespace

void CrashAtWritePoint(int64_t k) {
  g_fail_at.store(-1);
  g_write_points.store(0);
  g_crash_at.store(k);
}

void FailAtWritePoint(int64_t k) {
  g_crash_at.store(-1);
  g_write_points.store(0);
  g_fail_at.store(k);
}

int64_t WritePointsPassed() { return g_write_points.load(); }

bool DurableWritePoint() {
  const int64_t point = g_write_points.fetch_add(1);
  if (point == g_crash_at.load(std::memory_order_relaxed)) {
    std::_Exit(kCrashExitCode);
  }
  if (point == g_fail_at.load(std::memory_order_relaxed)) {
    errno = EIO;
    return false;
  }
  return true;
}

bool SyncFile(std::FILE* f) {
  if (!DurableWritePoint()) return false;
  if (std::fflush(f) != 0) return false;
#ifdef GFD_HAVE_FSYNC
  return FsyncNoPoint(::fileno(f));
#else
  return true;
#endif
}

bool SyncFd(int fd) { return DurableWritePoint() && FsyncNoPoint(fd); }

bool SyncClosedFile(const std::string& path) {
  if (!DurableWritePoint()) return false;
#ifdef GFD_HAVE_FSYNC
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = FsyncNoPoint(fd);
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
  std::error_code ec;
  if (DurableWritePoint()) {
    fs::rename(tmp, path, ec);
  } else {
    ec = std::error_code(errno, std::generic_category());
  }
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
