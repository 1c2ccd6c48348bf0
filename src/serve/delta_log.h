// Durable append-only record log -- the persistence primitive under the
// update-stream serving path.
//
// A serving process (PR 3's GraphView + DetectIncremental) holds its
// current graph as snapshot + overlay in memory; on restart the overlay
// is gone. The DeltaLog makes the stream durable: every applied batch is
// appended as one framed record before it is acknowledged, and startup
// replays the records to reconstruct the exact pre-crash state.
//
// On-disk framing (the payload itself is opaque bytes; the graph layer
// puts delta TSV in it):
//
//   R <seq> <payload-bytes> <crc32-hex>\n
//   <payload>\n
//
// - `seq` increases by exactly 1 per record; the first record of a fresh
//   file starts at the caller-provided anchor. Sequence numbers are the
//   exactly-once handle: replay skips what a snapshot already contains
//   and the compaction layer re-anchors the log by dropping records
//   through the snapshot's sequence number (DropThrough).
// - `crc32` (IEEE 802.3) covers the payload only; the header is
//   self-checking through its fixed shape.
// - A record is valid only if the header parses, the payload is fully
//   present with its '\n' terminator, the CRC matches, and the sequence
//   number continues the chain. The first invalid byte ends the log: Open
//   cuts the tail there (physically truncating the file), so a crash in
//   the middle of an append can never surface a partial batch.
//
// Two ways to add a record. Append flushes and fsyncs it before
// returning -- an acknowledged record survives the machine; the store's
// deltas.log takes every batch this way. Write flushes it to the OS and
// returns -- the record survives the process, not a machine crash --
// and Sync later forces everything written so far to stable storage;
// feed.log takes its records this way (its records are derived from the
// store's, serve/changefeed.h).
//
// Threading: DeltaLog itself is NOT thread-safe; every instance has one
// externally serialized writer. GraphStore's log serializes through the
// FeedService store mutex (the process's single-writer rule) and the
// feed.log instance inside ViolationChangefeed is only touched under
// the feed mutex. Do not add a mutex here -- callers own the ordering.
#ifndef GFD_SERVE_DELTA_LOG_H_
#define GFD_SERVE_DELTA_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gfd {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `data`. Exposed for the
/// tests that hand-corrupt log bytes.
uint32_t Crc32(std::string_view data);

struct DeltaLogRecord {
  uint64_t seq = 0;
  std::string payload;
};

struct DeltaLogOpenStats {
  size_t records = 0;            ///< whole records recovered on open
  uint64_t truncated_bytes = 0;  ///< corrupt/partial tail bytes cut
};

class DeltaLog {
 public:
  /// Opens the log at `path`, creating an empty one when absent. When the
  /// file is empty the first appended record is numbered `first_seq`;
  /// otherwise numbering continues after the last recovered record. A
  /// torn or corrupt tail is truncated away before the log is usable
  /// (open_stats().truncated_bytes reports how much was cut). Returns
  /// nullopt only on I/O errors, never on tail corruption.
  static std::optional<DeltaLog> Open(const std::string& path,
                                      uint64_t first_seq,
                                      std::string* error = nullptr);

  /// The recovered (plus since-appended) records, in sequence order.
  std::span<const DeltaLogRecord> records() const { return records_; }
  uint64_t next_seq() const { return next_seq_; }
  const DeltaLogOpenStats& open_stats() const { return open_stats_; }
  const std::string& path() const { return path_; }

  /// Appends one record durably (write + flush + fsync before the call
  /// returns) and returns its assigned sequence number.
  std::optional<uint64_t> Append(std::string_view payload,
                                 std::string* error = nullptr);

  /// Appends one record and flushes it to the OS without an fsync: it
  /// survives the process, and the next Sync (or Append) makes it
  /// durable. Returns its assigned sequence number.
  std::optional<uint64_t> Write(std::string_view payload,
                                std::string* error = nullptr);

  /// Forces every record written so far to stable storage.
  bool Sync(std::string* error = nullptr);

  /// Drops every record with seq <= `through` by atomically rewriting the
  /// file (write-temp + rename); numbering continues unchanged. This is
  /// the re-anchoring step after snapshot compaction: records the new
  /// snapshot already contains leave the log.
  bool DropThrough(uint64_t through, std::string* error = nullptr);

 private:
  DeltaLog() = default;

  bool OpenAppendHandle(std::string* error);
  // Truncates any torn bytes back to whole_bytes_, then reopens the
  // append handle. The write path after a failed append.
  bool RecoverAppendHandle(std::string* error);
  // Append and Write: frames `payload` as the next record, writes and
  // flushes it, and fsyncs it when `sync`.
  std::optional<uint64_t> AddRecord(std::string_view payload, bool sync,
                                    std::string* error);

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };

  std::string path_;
  uint64_t next_seq_ = 1;
  /// Bytes of whole records written, synced or not -- the truncation
  /// point that rolls back a torn append (a failed write must never leave
  /// garbage for a later record to land behind, and must keep the
  /// unsynced records before it: subscribers have seen them).
  size_t whole_bytes_ = 0;
  std::vector<DeltaLogRecord> records_;
  DeltaLogOpenStats open_stats_;
  std::unique_ptr<std::FILE, FileCloser> file_;
};

}  // namespace gfd

#endif  // GFD_SERVE_DELTA_LOG_H_
