#include "serve/changefeed.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "detect/violation.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "util/tsv.h"

namespace gfd {

namespace fs = std::filesystem;

namespace {

constexpr char kFeedFile[] = "feed.log";
constexpr std::string_view kCountKey = "violations ";

// A durable record is an optional count line, then the diff payload
// subscribers see. Payload lines start with A or R, so a leading
// "violations " line is unambiguous.
std::string_view DiffPayload(std::string_view record) {
  if (!record.starts_with(kCountKey)) return record;
  const size_t eol = record.find('\n');
  if (eol == std::string_view::npos) return {};
  return record.substr(eol + 1);
}

// The count line of `rec`, when it has a well-formed one taken at its
// own seq.
std::optional<MetaCount> RecordCount(const DeltaLogRecord& rec) {
  if (!rec.payload.starts_with(kCountKey)) return std::nullopt;
  std::istringstream in(rec.payload.substr(0, rec.payload.find('\n')));
  std::string key;
  in >> key;
  auto c = ParseMetaCountFields(in);
  if (c && c->seq == rec.seq) return c;
  return std::nullopt;
}

void AppendSide(std::string& out, const GraphView& view,
                std::span<const Gfd> rules, std::span<const Violation> side,
                char kind) {
  for (const Violation& v : side) {
    out += kind;
    out += '\t';
    out += std::to_string(v.gfd_index);
    out += '\t';
    out += std::to_string(v.pivot);
    out += '\t';
    out += EscapeField(view.NodeName(v.pivot));
    out += '\t';
    out += EscapeField(view.LabelName(view.NodeLabel(v.pivot)));
    out += '\t';
    out += EscapeField(DescribeViolation(view, rules, v));
    out += '\n';
  }
}

}  // namespace

std::string SerializeDiffPayload(const GraphView& view,
                                 std::span<const Gfd> rules,
                                 const IncrementalDiff& diff) {
  std::string out;
  AppendSide(out, view, rules, diff.added, 'A');
  AppendSide(out, view, rules, diff.removed, 'R');
  return out;
}

std::optional<FeedLine> ParseFeedLine(std::string_view line) {
  std::vector<std::string_view> fields = SplitFields(line);
  if (fields.size() != 6) return std::nullopt;
  if (fields[0] != "A" && fields[0] != "R") return std::nullopt;
  FeedLine out;
  out.added = fields[0] == "A";
  auto parse_u = [](std::string_view s, auto* v) {
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *v);
    return ec == std::errc() && p == s.data() + s.size();
  };
  if (!parse_u(fields[1], &out.rule)) return std::nullopt;
  if (!parse_u(fields[2], &out.pivot)) return std::nullopt;
  auto name = UnescapeField(fields[3]);
  auto label = UnescapeField(fields[4]);
  auto desc = UnescapeField(fields[5]);
  if (!name || !label || !desc) return std::nullopt;
  out.pivot_name = std::move(*name);
  out.pivot_label = std::move(*label);
  out.description = std::move(*desc);
  return out;
}

FeedSubscription::Wait FeedSubscription::Next(FeedEvent* out,
                                              int64_t timeout_ms) {
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return !queue_.empty() || evicted_ || closed_;
  });
  if (!queue_.empty()) {
    *out = std::move(queue_.front());
    queue_.pop_front();
    return Wait::kEvent;
  }
  if (evicted_) return Wait::kEvicted;
  if (closed_) return Wait::kClosed;
  return Wait::kTimeout;
}

std::unique_ptr<ViolationChangefeed> ViolationChangefeed::Open(
    const std::string& dir, uint64_t store_last_seq, std::string* error) {
  std::string path = (fs::path(dir) / kFeedFile).string();
  auto feed = std::unique_ptr<ViolationChangefeed>(new ViolationChangefeed());
  auto log = DeltaLog::Open(path, store_last_seq + 1, error);
  if (!log) return nullptr;
  if (log->next_seq() != store_last_seq + 1) {
    // The feed missed (or is ahead of) the store: its diffs cannot be
    // reconstructed, so restart the log at the store's position. Event
    // sequence numbers make the gap visible to reconnecting clients.
    log.reset();
    std::error_code ec;
    fs::remove(path, ec);
    log = DeltaLog::Open(path, store_last_seq + 1, error);
    if (!log) return nullptr;
    feed->reset_on_open_ = true;
  }
  if (!log->records().empty()) {
    feed->last_count_ = RecordCount(log->records().back());
  }
  feed->log_ = std::move(*log);
  return feed;
}

uint64_t ViolationChangefeed::last_seq() const {
  std::lock_guard lock(mu_);
  return log_->next_seq() - 1;
}

std::optional<MetaCount> ViolationChangefeed::last_count() const {
  std::lock_guard lock(mu_);
  return last_count_;
}

bool ViolationChangefeed::Publish(uint64_t seq, std::string payload,
                                  const std::optional<MetaCount>& count,
                                  std::string* error) {
  std::lock_guard lock(mu_);
  if (shutdown_) {
    if (error) *error = "changefeed is shut down";
    return false;
  }
  if (seq != log_->next_seq()) {
    if (error) {
      *error = "publish out of sequence: got " + std::to_string(seq) +
               ", feed expects " + std::to_string(log_->next_seq());
    }
    return false;
  }
  obs::ScopedTimer timer(&FeedPublishLatency());  // append + fan-out
  const std::string record = count ? MetaCountLine(*count) + payload : payload;
  if (!log_->Append(record, error)) {
    timer.Discard();
    return false;
  }
  last_count_ = count;

  // Fan out; a full queue evicts its subscription here (slow-consumer
  // disconnect), which also drops it from the live set.
  for (auto it = subs_.begin(); it != subs_.end();) {
    FeedSubscription& sub = **it;
    bool drop = false;
    {
      std::lock_guard sub_lock(sub.mu_);
      if (seq <= sub.cursor_) {
        // The subscriber declared it already saw this sequence (it can
        // connect at a cursor ahead of a freshly reset feed); never
        // deliver it twice.
        ++it;
        continue;
      }
      if (sub.closed_ || sub.evicted_) {
        drop = true;
      } else if (sub.queue_.size() >= sub.cap_) {
        sub.evicted_ = true;
        ++evictions_;
        drop = true;
      } else {
        sub.queue_.push_back(FeedEvent{seq, payload});
      }
    }
    sub.cv_.notify_all();
    it = drop ? subs_.erase(it) : it + 1;
  }
  return true;
}

std::shared_ptr<FeedSubscription> ViolationChangefeed::Subscribe(
    uint64_t cursor, size_t queue_cap, std::vector<FeedEvent>* replay) {
  std::lock_guard lock(mu_);
  if (replay) {
    for (const DeltaLogRecord& rec : log_->records()) {
      if (rec.seq <= cursor) continue;
      std::string_view diff = DiffPayload(rec.payload);
      replay->push_back(FeedEvent{rec.seq, std::string(diff)});
    }
  }
  auto sub = std::make_shared<FeedSubscription>();
  sub->cap_ = std::max<size_t>(queue_cap, 1);
  sub->cursor_ = cursor;
  if (shutdown_) {
    sub->closed_ = true;
    return sub;
  }
  subs_.push_back(sub);
  return sub;
}

void ViolationChangefeed::Unsubscribe(
    const std::shared_ptr<FeedSubscription>& sub) {
  std::lock_guard lock(mu_);
  subs_.erase(std::remove(subs_.begin(), subs_.end(), sub), subs_.end());
}

void ViolationChangefeed::Shutdown() {
  std::lock_guard lock(mu_);
  shutdown_ = true;
  for (const auto& sub : subs_) {
    {
      std::lock_guard sub_lock(sub->mu_);
      sub->closed_ = true;
    }
    sub->cv_.notify_all();
  }
  subs_.clear();
}

size_t ViolationChangefeed::subscriber_count() const {
  std::lock_guard lock(mu_);
  return subs_.size();
}

uint64_t ViolationChangefeed::evictions() const {
  std::lock_guard lock(mu_);
  return evictions_;
}

}  // namespace gfd
