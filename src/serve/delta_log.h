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
// Two ways to add a record. Stage writes and flushes it and hands its
// fsync to the log's syncer thread, and Commit waits for that fsync, so
// the caller's work runs while the disk flushes; a failed fsync retracts
// the record at Commit. Every batch a store takes is appended this way
// (GraphStore::Stage). Write flushes a record to the OS and returns -- it
// survives the process, not a machine crash -- and Sync later forces
// everything written so far to stable storage; feed.log takes its
// records this way (its records are derived from the store's,
// serve/changefeed.h).
//
// In memory a log keeps one entry per record -- its seq and where its
// payload sits in the file -- and never the payloads: Read fetches them
// from the file, so a long log (the feed is never trimmed) costs its
// index, not its bytes.
//
// Threading: DeltaLog itself is NOT thread-safe; every instance has one
// externally serialized writer. GraphStore's log serializes through the
// FeedService store mutex (the process's single-writer rule) and the
// feed.log instance inside ViolationChangefeed is only touched under
// the feed mutex. Do not add a mutex to the writer's state -- callers
// own the ordering. The one thread a log owns is its syncer: it starts
// with the first staged append and is joined when the log closes. It
// runs nothing but the fsync of the one staged record -- on the
// descriptor the writer flushed, no stdio call -- and hands the result
// back under its own mutex; the writer touches the file again only
// after Commit collected that result. Read opens the file on its own, so
// any thread may call it for records the log has written.
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

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `data`, computed
/// slicing-by-8 (eight table lookups per eight input bytes). The values
/// are those of the bytewise algorithm, so every frame a log holds is
/// byte-for-byte what it was. Exposed for the tests that hand-corrupt log
/// bytes.
uint32_t Crc32(std::string_view data);

struct DeltaLogRecord {
  uint64_t seq = 0;
  std::string payload;
};

/// Where one record's payload sits in its log file: all a log keeps of a
/// record in memory.
struct DeltaLogEntry {
  uint64_t seq = 0;
  uint64_t offset = 0;  ///< the payload's first byte
  uint64_t size = 0;    ///< payload bytes
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

  DeltaLog(DeltaLog&&) noexcept;
  DeltaLog& operator=(DeltaLog&&) noexcept;
  /// Joins the syncer, if a staged append started it.
  ~DeltaLog();

  /// The recovered (plus since-appended) records, in sequence order.
  std::span<const DeltaLogEntry> entries() const { return entries_; }
  uint64_t next_seq() const { return next_seq_; }
  const DeltaLogOpenStats& open_stats() const { return open_stats_; }
  const std::string& path() const { return path_; }

  /// Reads the payloads of `entries` -- entries() of the log at `path`,
  /// or a range of them -- from the file, in their order. Safe on any
  /// thread while the log's writer appends: a record's bytes reach the
  /// file before its entry exists. Nullopt (with *error) when the file no
  /// longer holds them.
  static std::optional<std::vector<DeltaLogRecord>> Read(
      const std::string& path, std::span<const DeltaLogEntry> entries,
      std::string* error = nullptr);

  /// Every record, read back from the file.
  std::optional<std::vector<DeltaLogRecord>> ReadRecords(
      std::string* error = nullptr) const {
    return Read(path_, entries_, error);
  }

  /// Appends one record and flushes it to the OS without an fsync: it
  /// survives the process, and the next Sync makes it durable. Returns
  /// its assigned sequence number.
  std::optional<uint64_t> Write(std::string_view payload,
                                std::string* error = nullptr);

  /// The first half of a durable append, whose fsync overlaps the
  /// caller's work: writes and flushes the record, as Write does, and
  /// hands its fsync to the syncer thread. Returns its assigned sequence
  /// number. Commit must follow before anything else touches the log.
  std::optional<uint64_t> Stage(std::string_view payload,
                                std::string* error = nullptr);

  /// The second half: waits for the staged record's fsync. When that
  /// failed, the record is retracted -- the file is cut back to before
  /// it, and entries() and next_seq() go back -- and Commit returns
  /// false. True when nothing is staged.
  bool Commit(std::string* error = nullptr);

  /// Forces every record written so far to stable storage.
  bool Sync(std::string* error = nullptr);

  /// Drops every record with seq <= `through` by atomically rewriting the
  /// file (write-temp + rename); numbering continues unchanged. This is
  /// the re-anchoring step after snapshot compaction: records the new
  /// snapshot already contains leave the log.
  bool DropThrough(uint64_t through, std::string* error = nullptr);

 private:
  class Syncer;

  DeltaLog();

  bool OpenAppendHandle(std::string* error);
  // Truncates any torn bytes back to whole_bytes_, then reopens the
  // append handle. The write path after a failed append.
  bool RecoverAppendHandle(std::string* error);

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
  /// Where the staged record starts, while one awaits Commit.
  std::optional<size_t> staged_at_;
  std::vector<DeltaLogEntry> entries_;
  DeltaLogOpenStats open_stats_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::unique_ptr<Syncer> syncer_;
};

}  // namespace gfd

#endif  // GFD_SERVE_DELTA_LOG_H_
