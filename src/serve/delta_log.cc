#include "serve/delta_log.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

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
bool ParseRecord(std::string_view data, size_t* pos, DeltaLogRecord* rec) {
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
  rec->payload.assign(payload);
  *pos = payload_at + nbytes + 1;
  return true;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = kTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
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
  // A failed append may have left torn bytes; cut back to the last
  // durable record BEFORE reopening, or the next acknowledged append
  // would land behind garbage and be discarded as a corrupt tail later.
  std::error_code ec;
  std::filesystem::resize_file(path_, durable_bytes_, ec);
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
    // A missing file is simply an empty log; Append creates it.
  }

  size_t pos = 0;
  while (pos < data.size()) {
    DeltaLogRecord rec;
    size_t next = pos;
    if (!ParseRecord(data, &next, &rec)) break;
    // A sequence break is corruption exactly like a bad CRC: the chain
    // of exactly-once numbering ends here.
    if (!log.records_.empty() && rec.seq != log.records_.back().seq + 1) {
      break;
    }
    pos = next;
    log.records_.push_back(std::move(rec));
  }
  log.open_stats_.records = log.records_.size();
  log.durable_bytes_ = pos;
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
                    {"durable_records", log.records_.size()}});
  }
  if (!log.records_.empty()) {
    log.next_seq_ = log.records_.back().seq + 1;
  }
  if (!log.OpenAppendHandle(error)) return std::nullopt;
  return log;
}

std::optional<uint64_t> DeltaLog::Append(std::string_view payload,
                                         std::string* error) {
  // An earlier error path may have left the log closed (possibly with a
  // torn tail it could not cut); retry the recovery rather than handing
  // fwrite a null stream.
  if (!file_ && !RecoverAppendHandle(error)) return std::nullopt;
  DurableWritePoint();
  uint64_t seq = next_seq_;
  obs::ScopedTimer timer(&LogAppendLatency());
  std::string frame = FrameRecord(seq, payload);
  bool ok = std::fwrite(frame.data(), 1, frame.size(), file_.get()) ==
                frame.size() &&
            SyncFile(file_.get());
  if (!ok) {
    timer.Discard();
    LogAppendFailuresTotal().Inc();
    SetError(error, path_ + ": append failed: " + std::strerror(errno));
    // A torn frame may sit on disk (or in the stdio buffer). Cut the file
    // back to the last durable record so a *later* successful append can
    // never land behind garbage and be discarded as a corrupt tail. If
    // the cut itself fails, the log stays closed and the next Append
    // retries it before writing anything.
    file_.reset();
    RecoverAppendHandle(nullptr);
    return std::nullopt;
  }
  durable_bytes_ += frame.size();
  LogAppendsTotal().Inc();
  LogAppendBytesTotal().Inc(frame.size());
  records_.push_back({seq, std::string(payload)});
  ++next_seq_;
  return seq;
}

bool DeltaLog::DropThrough(uint64_t through, std::string* error) {
  DurableWritePoint();
  std::string content;
  for (const DeltaLogRecord& rec : records_) {
    if (rec.seq <= through) continue;
    content += FrameRecord(rec.seq, rec.payload);
  }
  // Close the live handle before the swap so appends reopen the new file.
  file_.reset();
  if (!AtomicWriteFile(path_, content, error)) {
    OpenAppendHandle(nullptr);  // best-effort: keep the old log usable
    return false;
  }
  std::erase_if(records_,
                [&](const DeltaLogRecord& r) { return r.seq <= through; });
  durable_bytes_ = content.size();
  next_seq_ = std::max(next_seq_, through + 1);
  return OpenAppendHandle(error);
}

}  // namespace gfd
