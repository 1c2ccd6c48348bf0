// Shared durability primitives of the serve layer: fsync wrappers, the
// write-temp + fsync + rename + directory-fsync sequence both the delta
// log and the graph store commit through, the running-violation-count
// record store.meta and feed.log records share, and the test-only
// crash-point hook every durable write passes. One implementation, so a
// crash-ordering or format fix lands everywhere at once.
#ifndef GFD_SERVE_DURABLE_IO_H_
#define GFD_SERVE_DURABLE_IO_H_

#include <cstdint>
#include <cstdio>
#include <istream>
#include <optional>
#include <string>
#include <string_view>

namespace gfd {

/// Flushes `f`'s stdio buffer and forces it to stable storage.
bool SyncFile(std::FILE* f);

/// Forces an already-closed file's bytes to stable storage.
bool SyncClosedFile(const std::string& path);

/// fsyncs the directory holding `path`, making a rename of it durable.
void SyncParentDir(const std::string& path);

/// Writes `content` to `path` atomically and durably: temp file in the
/// same directory, fsync, rename over, fsync the directory. On error
/// (reported via `*error`) the destination is untouched.
bool AtomicWriteFile(const std::string& path, std::string_view content,
                     std::string* error);

/// Forces the file behind descriptor `fd` to stable storage: a durable
/// write point, and no stdio call (the delta log's syncer thread runs it
/// on the descriptor of a stream its writer already flushed).
bool SyncFd(int fd);

/// Test-only fault injection. Every durable write point -- SyncFile,
/// SyncClosedFile, SyncFd, AtomicWriteFile's rename, a DeltaLog record
/// write and DeltaLog::DropThrough -- calls DurableWritePoint() before it
/// acts, and acts only when it returns true. Points are counted from the
/// last arming call, 0-based, whatever thread passes them.
/// - After CrashAtWritePoint(k), point k ends the process with
///   std::_Exit(kCrashExitCode): nothing from that point on reaches disk,
///   and unflushed stdio buffers are lost, exactly as under kill -9
///   there. Meant for a forked child.
/// - After FailAtWritePoint(k), point k returns false with errno EIO, and
///   its caller fails as it would when its own I/O failed; the process
///   goes on.
/// k < 0 disarms. Thread-safe (a staged append's fsync runs on its log's
/// syncer thread).
inline constexpr int kCrashExitCode = 86;
void CrashAtWritePoint(int64_t k);
void FailAtWritePoint(int64_t k);
/// The write points passed since the last arming call.
int64_t WritePointsPassed();
[[nodiscard]] bool DurableWritePoint();

/// What a store's error begins with when a valid batch could not be made
/// durable -- its log record's write or fsync failed, and the record was
/// taken back out -- as opposed to a batch the store rejected. The server
/// answers the first with 500 and the second with 422.
inline constexpr std::string_view kNotDurableError = "not durable: ";

/// The running violation count as persisted: the value, the sequence it
/// was taken at, and the fingerprint of the rule set it counts under.
/// store.meta -- a coordinator's included -- and feed.log records
/// (serve/changefeed.h) carry it as a `violations <count> <seq>
/// <fingerprint>` line.
struct MetaCount {
  uint64_t count = 0;
  uint64_t seq = 0;
  uint64_t fingerprint = 0;
};

/// The meta line for `c`, trailing newline included.
std::string MetaCountLine(const MetaCount& c);

/// Parses the three fields following the `violations` key; nullopt when
/// malformed (a malformed line is treated as "no count", never an error
/// -- the caller re-seeds with a full scan).
std::optional<MetaCount> ParseMetaCountFields(std::istream& in);

}  // namespace gfd

#endif  // GFD_SERVE_DURABLE_IO_H_
