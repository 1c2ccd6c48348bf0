#include "serve/delta_log.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>

#include "obs/trace.h"
#include "serve/durable_io.h"
#include "serve/metrics.h"

namespace gfd {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

// One framed record, ready to write.
std::string FrameRecord(uint64_t seq, std::string_view payload) {
  char header[64];
  std::snprintf(header, sizeof(header), "R %" PRIu64 " %zu %08x\n", seq,
                payload.size(), Crc32(payload));
  std::string out(header);
  out.append(payload);
  out.push_back('\n');
  return out;
}

// Parses the record starting at `pos` of `data`. On success fills `*rec`,
// advances `*pos` past the record, and returns true. Any malformation --
// torn header, short payload, missing terminator, CRC mismatch -- returns
// false with *pos untouched (the caller cuts the tail there).
bool ParseRecord(std::string_view data, size_t* pos, DeltaLogEntry* rec) {
  size_t p = *pos;
  size_t eol = data.find('\n', p);
  if (eol == std::string_view::npos) return false;
  // Header shape: R <seq> <bytes> <8-hex-crc>
  std::string header(data.substr(p, eol - p));
  uint64_t seq = 0;
  size_t nbytes = 0;
  unsigned crc = 0;
  char trailing = 0;
  int matched = std::sscanf(header.c_str(), "R %" SCNu64 " %zu %8x%c", &seq,
                            &nbytes, &crc, &trailing);
  if (matched != 3) return false;
  if (nbytes > data.size()) return false;  // absurd length (torn header)
  size_t payload_at = eol + 1;
  if (payload_at + nbytes + 1 > data.size()) return false;  // short payload
  if (data[payload_at + nbytes] != '\n') return false;
  std::string_view payload = data.substr(payload_at, nbytes);
  if (Crc32(payload) != crc) return false;
  rec->seq = seq;
  rec->offset = payload_at;
  rec->size = nbytes;
  *pos = payload_at + nbytes + 1;
  return true;
}

}  // namespace

// The thread a log's staged fsyncs run on: one at a time, handed over by
// Start and collected by Wait.
class DeltaLog::Syncer {
 public:
  Syncer() : thread_([this] { Run(); }) {}

  ~Syncer() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  // The thread holds `this`.
  Syncer(const Syncer&) = delete;
  Syncer& operator=(const Syncer&) = delete;

  // Hands over the fsync of `fd`, whose stream holds record `seq` flushed.
  void Start(int fd, uint64_t seq) {
    {
      std::lock_guard lock(mu_);
      fd_ = fd;
      seq_ = seq;
      state_ = State::kPending;
    }
    cv_.notify_all();
  }

  // Blocks until the fsync Start handed over ran; 0 when it succeeded,
  // else its errno.
  int Wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return state_ == State::kDone; });
    state_ = State::kIdle;
    return err_;
  }

 private:
  enum class State { kIdle, kPending, kDone };

  void Run() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return state_ == State::kPending || stop_; });
      if (state_ != State::kPending) return;
      const int fd = fd_;
      const uint64_t seq = seq_;
      lock.unlock();
      obs::ScopedTimer timer(nullptr, "log_sync", {{"seq", seq}});
      const bool ok = SyncFd(fd);
      const int err = ok ? 0 : (errno != 0 ? errno : EIO);
      if (ok) {
        timer.StopNs();
      } else {
        timer.Discard();
      }
      lock.lock();
      err_ = err;
      state_ = State::kDone;
      cv_.notify_all();
    }
  }

  std::mutex mu_;  // guards: fd_, seq_, state_, err_, stop_
  std::condition_variable cv_;
  int fd_ = -1;
  uint64_t seq_ = 0;
  State state_ = State::kIdle;
  int err_ = 0;
  bool stop_ = false;
  std::thread thread_;  // last: starts once the state above exists
};

DeltaLog::DeltaLog() = default;
DeltaLog::DeltaLog(DeltaLog&&) noexcept = default;
DeltaLog& DeltaLog::operator=(DeltaLog&&) noexcept = default;
DeltaLog::~DeltaLog() = default;

uint32_t Crc32(std::string_view data) {
  // Slicing-by-8: table[0] is the bytewise table; table[k][b] advances
  // table[0][b] by k more zero bytes, so one step folds eight input
  // bytes with eight lookups.
  using Table = std::array<std::array<uint32_t, 256>, 8>;
  static const Table kTable = [] {
    Table t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < t.size(); ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  // Little-endian loads spelled out, so the result is the same on any
  // host byte order.
  auto load32 = [](const unsigned char* q) {
    return uint32_t{q[0]} | uint32_t{q[1]} << 8 | uint32_t{q[2]} << 16 |
           uint32_t{q[3]} << 24;
  };
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = load32(p) ^ crc;
    const uint32_t hi = load32(p + 4);
    crc = kTable[7][lo & 0xFF] ^ kTable[6][(lo >> 8) & 0xFF] ^
          kTable[5][(lo >> 16) & 0xFF] ^ kTable[4][lo >> 24] ^
          kTable[3][hi & 0xFF] ^ kTable[2][(hi >> 8) & 0xFF] ^
          kTable[1][(hi >> 16) & 0xFF] ^ kTable[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTable[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool DeltaLog::OpenAppendHandle(std::string* error) {
  file_.reset(std::fopen(path_.c_str(), "ab"));
  if (!file_) {
    SetError(error, path_ + ": cannot open for append: " +
                        std::strerror(errno));
    return false;
  }
  return true;
}

bool DeltaLog::RecoverAppendHandle(std::string* error) {
  // A failed append may have left torn bytes; cut back to the last whole
  // record BEFORE reopening, or the next append would land behind
  // garbage and be discarded as a corrupt tail later.
  std::error_code ec;
  std::filesystem::resize_file(path_, whole_bytes_, ec);
  if (ec && std::filesystem::exists(path_)) {
    SetError(error, path_ + ": cannot truncate torn tail: " + ec.message());
    return false;  // stay closed: appending would risk acknowledged data
  }
  return OpenAppendHandle(error);
}

std::optional<DeltaLog> DeltaLog::Open(const std::string& path,
                                       uint64_t first_seq,
                                       std::string* error) {
  DeltaLog log;
  log.path_ = path;
  log.next_seq_ = first_seq;

  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      data = std::move(buf).str();
    }
    // A missing file is simply an empty log; its first record creates it.
  }

  size_t pos = 0;
  while (pos < data.size()) {
    DeltaLogEntry rec;
    size_t next = pos;
    if (!ParseRecord(data, &next, &rec)) break;
    // A sequence break is corruption exactly like a bad CRC: the chain
    // of exactly-once numbering ends here.
    if (!log.entries_.empty() && rec.seq != log.entries_.back().seq + 1) {
      break;
    }
    pos = next;
    log.entries_.push_back(rec);
  }
  log.open_stats_.records = log.entries_.size();
  log.whole_bytes_ = pos;
  if (pos < data.size()) {
    // Corrupt or torn tail: cut the file back to the last whole record so
    // the partial batch can never be applied or appended after.
    log.open_stats_.truncated_bytes = data.size() - pos;
    std::error_code ec;
    std::filesystem::resize_file(path, pos, ec);
    if (ec) {
      SetError(error, path + ": cannot truncate corrupt tail: " + ec.message());
      return std::nullopt;
    }
    LogTornTailTruncationsTotal().Inc();
    LogTruncatedBytesTotal().Inc(log.open_stats_.truncated_bytes);
    obs::EmitTrace("torn_tail",
                   {{"bytes", log.open_stats_.truncated_bytes},
                    {"durable_records", log.entries_.size()}});
  }
  if (!log.entries_.empty()) {
    log.next_seq_ = log.entries_.back().seq + 1;
  }
  if (!log.OpenAppendHandle(error)) return std::nullopt;
  return log;
}

std::optional<std::vector<DeltaLogRecord>> DeltaLog::Read(
    const std::string& path, std::span<const DeltaLogEntry> entries,
    std::string* error) {
  std::vector<DeltaLogRecord> out;
  if (entries.empty()) return out;
  std::ifstream in(path, std::ios::binary);
  out.reserve(entries.size());
  for (const DeltaLogEntry& e : entries) {
    DeltaLogRecord rec{e.seq, std::string(e.size, '\0')};
    in.seekg(static_cast<std::streamoff>(e.offset));
    in.read(rec.payload.data(), static_cast<std::streamsize>(e.size));
    if (!in) {
      SetError(error, path + ": cannot read record " + std::to_string(e.seq));
      return std::nullopt;
    }
    out.push_back(std::move(rec));
  }
  return out;
}

std::optional<uint64_t> DeltaLog::Stage(std::string_view payload,
                                        std::string* error) {
  const size_t at = whole_bytes_;
  auto seq = Write(payload, error);
  if (!seq) return std::nullopt;
  if (!syncer_) syncer_ = std::make_unique<Syncer>();
  staged_at_ = at;
  syncer_->Start(::fileno(file_.get()), *seq);
  return seq;
}

bool DeltaLog::Commit(std::string* error) {
  if (!staged_at_) return true;
  const int err = syncer_->Wait();
  const size_t at = *staged_at_;
  staged_at_.reset();
  if (err == 0) return true;
  // The record may or may not be on disk, and a later fsync cannot tell:
  // cut it out, as a failed append is cut, so the log holds exactly the
  // records that were made durable.
  LogAppendFailuresTotal().Inc();
  SetError(error, path_ + ": sync failed: " + std::strerror(err));
  entries_.pop_back();
  --next_seq_;
  whole_bytes_ = at;
  file_.reset();
  RecoverAppendHandle(nullptr);
  return false;
}

std::optional<uint64_t> DeltaLog::Write(std::string_view payload,
                                        std::string* error) {
  // An earlier error path may have left the log closed (possibly with a
  // torn tail it could not cut); retry the recovery rather than handing
  // fwrite a null stream.
  if (!file_ && !RecoverAppendHandle(error)) return std::nullopt;
  uint64_t seq = next_seq_;
  obs::ScopedTimer timer(&LogAppendLatency());
  std::string frame = FrameRecord(seq, payload);
  bool ok = DurableWritePoint() &&
            std::fwrite(frame.data(), 1, frame.size(), file_.get()) ==
                frame.size() &&
            std::fflush(file_.get()) == 0;
  if (!ok) {
    timer.Discard();
    LogAppendFailuresTotal().Inc();
    SetError(error, path_ + ": append failed: " + std::strerror(errno));
    // A torn frame may sit on disk (or in the stdio buffer). Cut the file
    // back to the last whole record so a *later* successful append can
    // never land behind garbage and be discarded as a corrupt tail. If
    // the cut itself fails, the log stays closed and the next append
    // retries it before writing anything.
    file_.reset();
    RecoverAppendHandle(nullptr);
    return std::nullopt;
  }
  entries_.push_back(
      {seq, whole_bytes_ + frame.size() - payload.size() - 1, payload.size()});
  whole_bytes_ += frame.size();
  LogAppendsTotal().Inc();
  LogAppendBytesTotal().Inc(frame.size());
  ++next_seq_;
  return seq;
}

bool DeltaLog::Sync(std::string* error) {
  if (file_ && SyncFile(file_.get())) return true;
  SetError(error, path_ + ": sync failed: " + std::strerror(errno));
  return false;
}

bool DeltaLog::DropThrough(uint64_t through, std::string* error) {
  if (!DurableWritePoint()) {
    SetError(error, path_ + ": drop failed: " + std::strerror(errno));
    return false;
  }
  const auto kept_from = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const DeltaLogEntry& e) { return e.seq > through; });
  auto kept = Read(path_, {kept_from, entries_.end()}, error);
  if (!kept) return false;
  std::string content;
  std::vector<DeltaLogEntry> entries;
  for (const DeltaLogRecord& rec : *kept) {
    content += FrameRecord(rec.seq, rec.payload);
    entries.push_back(
        {rec.seq, content.size() - rec.payload.size() - 1, rec.payload.size()});
  }
  // Close the live handle before the swap so appends reopen the new file.
  file_.reset();
  if (!AtomicWriteFile(path_, content, error)) {
    OpenAppendHandle(nullptr);  // best-effort: keep the old log usable
    return false;
  }
  entries_ = std::move(entries);
  whole_bytes_ = content.size();
  next_seq_ = std::max(next_seq_, through + 1);
  return OpenAppendHandle(error);
}

}  // namespace gfd
