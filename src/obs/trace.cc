#include "obs/trace.h"

#include <atomic>
#include <cinttypes>

namespace gfd::obs {
namespace {

std::atomic<TraceLog*> g_active_trace{nullptr};

// Stage names are lowercase identifiers in practice, but escape anyway
// so arbitrary strings cannot break the JSON framing.
std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

uint64_t MonotonicNowNs() {
  static const StopwatchNs kProcessStart;
  return kProcessStart.ElapsedNs();
}

TraceLog::TraceLog(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

TraceLog::~TraceLog() {
  if (file_ != nullptr) std::fclose(file_);
}

std::unique_ptr<TraceLog> TraceLog::Open(const std::string& path,
                                         std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open trace log " + path;
    return nullptr;
  }
  return std::unique_ptr<TraceLog>(new TraceLog(file, path));
}

void TraceLog::Emit(std::string_view stage,
                    std::initializer_list<TraceField> fields, int64_t dur_ns) {
  Emit(stage, std::vector<TraceField>(fields), dur_ns);
}

void TraceLog::Emit(std::string_view stage,
                    const std::vector<TraceField>& fields, int64_t dur_ns) {
  Emit(stage, fields, dur_ns, MonotonicNowNs());
}

void TraceLog::Emit(std::string_view stage,
                    const std::vector<TraceField>& fields, int64_t dur_ns,
                    uint64_t ts_ns) {
  std::string line = "{\"ts_ns\":" + std::to_string(ts_ns) +
                     ",\"stage\":\"" + EscapeJson(stage) + '"';
  if (dur_ns >= 0) line += ",\"dur_ns\":" + std::to_string(dur_ns);
  for (const TraceField& field : fields) {
    line += ",\"" + EscapeJson(field.key) + "\":" + std::to_string(field.value);
  }
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

void SetActiveTrace(TraceLog* log) {
  g_active_trace.store(log, std::memory_order_release);
}

TraceLog* ActiveTrace() {
  return g_active_trace.load(std::memory_order_acquire);
}

void EmitTrace(std::string_view stage,
               std::initializer_list<TraceField> fields) {
  TraceLog* log = ActiveTrace();
  if (log != nullptr) log->Emit(stage, fields);
}

ScopedTimer::ScopedTimer(Histogram* histogram, std::string_view stage,
                         std::initializer_list<TraceField> fields)
    : histogram_(histogram), stage_(stage), fields_(fields) {}

ScopedTimer::~ScopedTimer() { StopNs(); }

void ScopedTimer::AddField(std::string_view key, uint64_t value) {
  fields_.push_back({key, value});
}

void ScopedTimer::Hold() {
  held_ns_ = watch_.ElapsedNs();
  held_end_ns_ = MonotonicNowNs();
  held_ = true;
}

uint64_t ScopedTimer::StopNs() {
  const uint64_t elapsed = held_ ? held_ns_ : watch_.ElapsedNs();
  if (done_) return elapsed;
  done_ = true;
  if (histogram_ != nullptr) {
    histogram_->Observe(static_cast<double>(elapsed) * 1e-9);
  }
  if (!stage_.empty()) {
    TraceLog* log = ActiveTrace();
    if (log != nullptr) {
      log->Emit(stage_, fields_, static_cast<int64_t>(elapsed),
                held_ ? held_end_ns_ : MonotonicNowNs());
    }
  }
  return elapsed;
}

}  // namespace gfd::obs
