// Structured JSON-lines trace log plus the ScopedTimer RAII span that
// feeds latency histograms and (optionally) emits one trace event per
// serving-loop stage (validate -> route -> detect -> merge -> compact)
// with seq/batch/fragment fields.
//
// One TraceLog can be installed process-wide via SetActiveTrace; hot
// paths then call EmitTrace / construct ScopedTimers unconditionally --
// with no active log the trace side is a single relaxed atomic load.
#ifndef GFD_OBS_TRACE_H_
#define GFD_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/timer.h"

namespace gfd::obs {

/// One numeric field attached to a trace event, e.g. {"seq", 42}.
/// Keys must outlive the event emission (string literals in practice).
struct TraceField {
  std::string_view key;
  uint64_t value;
};

/// Append-only JSON-lines trace sink. Each event is one line, e.g. this
/// serving step's detect span (wrapped here), whose units and matches
/// say where the enumeration work went:
///   {"ts_ns":123,"stage":"detect","dur_ns":4567,"seq":3,
///    "write_units":5,"edge_units":2,"matches":812}
/// ts_ns is monotonic nanoseconds since process start (steady clock);
/// dur_ns is present only for span events. Emit() is mutex-guarded and
/// flushes per line so a crash loses at most the in-flight event.
class TraceLog {
 public:
  /// Opens `path` for appending; returns nullptr and sets *error on
  /// failure.
  static std::unique_ptr<TraceLog> Open(const std::string& path,
                                        std::string* error = nullptr);
  ~TraceLog();

  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Writes one event line. dur_ns < 0 omits the dur_ns field.
  void Emit(std::string_view stage, std::initializer_list<TraceField> fields,
            int64_t dur_ns = -1);
  void Emit(std::string_view stage, const std::vector<TraceField>& fields,
            int64_t dur_ns = -1);
  /// Emit with the event's ts_ns given (MonotonicNowNs() at its end)
  /// rather than taken now.
  void Emit(std::string_view stage, const std::vector<TraceField>& fields,
            int64_t dur_ns, uint64_t ts_ns);

  const std::string& path() const { return path_; }

 private:
  explicit TraceLog(std::FILE* file, std::string path);

  std::mutex mu_;  // guards: file_
  std::FILE* file_;
  std::string path_;
};

/// Installs (or clears, with nullptr) the process-wide trace sink.
/// The caller keeps ownership and must clear before destroying the log.
void SetActiveTrace(TraceLog* log);

/// Currently installed trace sink, or nullptr.
TraceLog* ActiveTrace();

/// Monotonic nanoseconds since process start (first call).
uint64_t MonotonicNowNs();

/// Emits a point event to the active trace, if any. No-op otherwise.
void EmitTrace(std::string_view stage,
               std::initializer_list<TraceField> fields);

/// RAII span: on destruction observes the elapsed seconds into the
/// histogram (if any) and, when a stage name was given and a trace log
/// is active, emits a span event carrying the fields added so far.
/// Either side may be omitted: histogram-only (empty stage) or
/// trace-only (null histogram).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram, std::string_view stage = {},
                       std::initializer_list<TraceField> fields = {});
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attaches a field learned mid-span (e.g. the assigned seq).
  void AddField(std::string_view key, uint64_t value);

  /// Ends the span here but records it later, on StopNs or destruction,
  /// so a field a later stage learns (the seq Stage assigns to a parsed
  /// batch) can still join it; the span keeps this end and duration.
  void Hold();

  /// Stops and records now (or at Hold's end); returns the span
  /// duration in nanoseconds.
  uint64_t StopNs();

  /// Stops without recording anything (e.g. the operation failed).
  void Discard() { done_ = true; }

 private:
  StopwatchNs watch_;
  Histogram* histogram_;
  std::string_view stage_;
  std::vector<TraceField> fields_;
  bool done_ = false;
  bool held_ = false;
  uint64_t held_ns_ = 0;      // the duration at Hold
  uint64_t held_end_ns_ = 0;  // MonotonicNowNs() at Hold
};

}  // namespace gfd::obs

#endif  // GFD_OBS_TRACE_H_
