// Shared durability primitives of the serve layer: fsync wrappers, the
// write-temp + fsync + rename + directory-fsync sequence both the delta
// log and the graph store commit through, the running-violation-count
// record store.meta, coordinator.meta and feed.log records share, and
// the test-only crash-point hook every durable write passes. One
// implementation, so a crash-ordering or format fix lands everywhere at
// once.
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

/// Test-only crash injection. Every durable write point -- SyncFile,
/// SyncClosedFile, AtomicWriteFile's rename, DeltaLog::Append and
/// DeltaLog::DropThrough -- calls DurableWritePoint() before it acts.
/// After CrashAtWritePoint(k), the point with index k (0-based, counted
/// from that call) ends the process with std::_Exit(kCrashExitCode): nothing
/// from that point on reaches disk, and unflushed stdio buffers are
/// lost, exactly as under kill -9 there. Meant for a forked child; k < 0
/// disarms. Thread-safe (fragment appends run on cluster workers).
inline constexpr int kCrashExitCode = 86;
void CrashAtWritePoint(int64_t k);
void DurableWritePoint();

/// The running violation count as persisted: the value, the sequence it
/// was taken at, and the fingerprint of the rule set it counts under.
/// store.meta, coordinator.meta and feed.log records (serve/changefeed.h)
/// all carry it as a `violations <count> <seq> <fingerprint>` line.
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

/// In-memory running-count state with the shared validity rule: a count
/// is served only at the exact sequence it was taken and under the same
/// rule-set fingerprint -- a replay landing elsewhere, an append nobody
/// folded back in, or a different rule set all read as "absent".
class RunningCount {
 public:
  /// The count under `fingerprint`, valid at exactly `seq`.
  std::optional<uint64_t> Get(uint64_t seq, uint64_t fingerprint) const {
    if (count_ && seq_ == seq && fingerprint_ == fingerprint) return count_;
    return std::nullopt;
  }

  void Set(uint64_t count, uint64_t seq, uint64_t fingerprint) {
    count_ = count;
    seq_ = seq;
    fingerprint_ = fingerprint;
  }

  /// An append outdates the count until a caller sets the post-batch
  /// one (SetViolationCount).
  void Invalidate() { count_.reset(); }

  /// Adopts a persisted record iff it was taken at exactly `seq` (the
  /// sequence recovery replayed to).
  void Restore(const std::optional<MetaCount>& c, uint64_t seq) {
    if (c && c->seq == seq) Set(c->count, c->seq, c->fingerprint);
  }

  /// The record to persist while valid at `seq`, else nullopt.
  std::optional<MetaCount> Persisted(uint64_t seq) const {
    if (count_ && seq_ == seq) return MetaCount{*count_, seq_, fingerprint_};
    return std::nullopt;
  }

 private:
  std::optional<uint64_t> count_;
  uint64_t seq_ = 0;
  uint64_t fingerprint_ = 0;
};

}  // namespace gfd

#endif  // GFD_SERVE_DURABLE_IO_H_
