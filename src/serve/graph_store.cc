#include "serve/graph_store.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "graph/loader.h"
#include "obs/trace.h"
#include "serve/changefeed.h"
#include "serve/durable_io.h"
#include "serve/metrics.h"
#include "util/timer.h"

namespace gfd {

namespace fs = std::filesystem;

namespace {

constexpr char kMetaFile[] = "store.meta";
constexpr char kLogFile[] = "deltas.log";
constexpr char kMetaMagic[] = "gfd-graph-store v1";

void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

std::string SnapshotName(uint64_t anchor) {
  return "snapshot-" + std::to_string(anchor) + ".tsv";
}

std::string MetaContent(uint64_t anchor, const std::string& snapshot_file,
                        const std::optional<MetaCount>& count) {
  std::string out(kMetaMagic);
  out += "\nanchor " + std::to_string(anchor);
  out += "\nsnapshot " + snapshot_file + "\n";
  if (count) out += MetaCountLine(*count);
  return out;
}

bool ParseMeta(const std::string& path, uint64_t* anchor,
               std::string* snapshot_file, std::optional<MetaCount>* count,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, path + ": cannot open (not a graph store?)");
    return false;
  }
  std::string magic;
  if (!std::getline(in, magic) || magic != kMetaMagic) {
    SetError(error, path + ": bad magic line '" + magic + "'");
    return false;
  }
  bool have_anchor = false, have_snapshot = false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "anchor") {
      have_anchor = static_cast<bool>(ls >> *anchor);
    } else if (key == "snapshot") {
      have_snapshot = static_cast<bool>(ls >> *snapshot_file);
    } else if (key == "violations" && count) {
      *count = ParseMetaCountFields(ls);
    }
  }
  if (!have_anchor || !have_snapshot) {
    SetError(error, path + ": missing anchor/snapshot entry");
    return false;
  }
  return true;
}

std::string SaveGraphString(const PropertyGraph& g) {
  std::ostringstream os;
  // with_vocab: a reloaded snapshot must reproduce interner ids exactly,
  // or compiled rule sets and logged batches would silently re-bind to
  // permuted vocabulary after a restart.
  SaveGraphTsv(g, os, /*with_vocab=*/true);
  return std::move(os).str();
}

}  // namespace

bool CompactionDue(const GraphStoreOptions& opts, const LiveGraph& live) {
  const size_t ops = live.overlay().ops.size();
  if (ops == 0) return false;
  if (opts.compact_min_ops > 0 && ops >= opts.compact_min_ops) return true;
  const double edges = static_cast<double>(live.base().NumEdges());
  return opts.compact_min_fraction > 0 &&
         static_cast<double>(ops) >= opts.compact_min_fraction * edges;
}

std::optional<ReplayStats> ReplayLog(std::span<const DeltaLogRecord> records,
                                     uint64_t anchor, LiveGraph& live,
                                     const std::string& source,
                                     std::string* error) {
  StopwatchNs replay_watch;
  ReplayStats stats;
  stats.last_seq = anchor;
  for (const DeltaLogRecord& rec : records) {
    if (rec.seq <= anchor) {
      ++stats.skipped_batches;
      continue;
    }
    if (rec.seq != stats.last_seq + 1) {
      SetError(error, source + ": record " + std::to_string(rec.seq) +
                          " does not continue " +
                          std::to_string(stats.last_seq) + " (lost batches?)");
      return std::nullopt;
    }
    std::string replay_error;
    auto batch = live.Parse(rec.payload, &replay_error);
    if (!batch || !live.Absorb(*batch, &replay_error)) {
      SetError(error, source + ": record " + std::to_string(rec.seq) + ": " +
                          replay_error);
      return std::nullopt;
    }
    stats.last_seq = rec.seq;
    ++stats.replayed_batches;
  }
  StoreReplayLatency().Observe(replay_watch.Seconds());
  StoreReplayedBatchesTotal().Inc(stats.replayed_batches);
  obs::EmitTrace("replay", {{"seq", stats.last_seq},
                            {"batches", stats.replayed_batches},
                            {"overlay_ops", live.overlay().ops.size()}});
  return stats;
}

bool GraphStore::Init(const std::string& dir, const PropertyGraph& g,
                      std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    SetError(error, dir + ": cannot create: " + ec.message());
    return false;
  }
  std::string meta_path = (fs::path(dir) / kMetaFile).string();
  if (fs::exists(meta_path)) {
    SetError(error, dir + ": already holds a graph store");
    return false;
  }
  std::string snapshot = SnapshotName(0);
  if (!AtomicWriteFile((fs::path(dir) / snapshot).string(),
                       SaveGraphString(g), error)) {
    return false;
  }
  return AtomicWriteFile(meta_path, MetaContent(0, snapshot, std::nullopt),
                         error);
}

std::optional<GraphStore> GraphStore::Open(const std::string& dir,
                                           const GraphStoreOptions& opts,
                                           std::string* error) {
  GraphStore store;
  store.opts_ = opts;
  store.dir_ = dir;

  uint64_t anchor = 0;
  std::optional<MetaCount> count;
  if (!ParseMeta((fs::path(dir) / kMetaFile).string(), &anchor,
                 &store.snapshot_file_, &count, error)) {
    return std::nullopt;
  }
  std::string snap_path = (fs::path(dir) / store.snapshot_file_).string();
  std::string load_error;
  auto base = LoadGraphTsvFile(snap_path, &load_error);
  if (!base) {
    SetError(error, snap_path + ": " + load_error);
    return std::nullopt;
  }
  store.live_.emplace(std::move(*base));
  store.stats_.anchor_seq = anchor;
  store.stats_.last_seq = anchor;

  auto log = DeltaLog::Open((fs::path(dir) / kLogFile).string(), anchor + 1,
                            error);
  if (!log) return std::nullopt;
  store.log_ = std::move(*log);
  store.stats_.truncated_bytes = store.log_->open_stats().truncated_bytes;

  // Sequenced, exactly-once replay: records the snapshot already contains
  // (seq <= anchor; left over when a crash hit between the meta commit
  // and the log re-anchor) are skipped, the rest are absorbed one by one,
  // as Append absorbed them.
  auto replay = ReplayLog(store.log_->records(), anchor, *store.live_,
                          store.log_->path(), error);
  if (!replay) return std::nullopt;
  store.stats_.last_seq = replay->last_seq;
  store.stats_.replayed_batches = replay->replayed_batches;
  store.stats_.skipped_batches = replay->skipped_batches;

  // The persisted count is trusted only when it was taken at exactly the
  // state replay reconstructed: a torn tail (count ahead) or appends that
  // never folded their diff back in (count behind) both invalidate it.
  store.count_.Restore(count, store.stats_.last_seq);

  // Self-heal: drop pre-anchor records and clean tmp/orphan snapshots.
  if (store.stats_.skipped_batches > 0) {
    if (!store.log_->DropThrough(anchor, error)) return std::nullopt;
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    bool orphan_snapshot = name.starts_with("snapshot-") &&
                           name.ends_with(".tsv") &&
                           name != store.snapshot_file_;
    if (orphan_snapshot || name.ends_with(".tmp")) {
      fs::remove(entry.path(), ec);
    }
  }
  return store;
}

std::optional<uint64_t> GraphStore::Append(std::string_view delta_tsv,
                                           std::string* error) {
  auto batch = live_->Parse(delta_tsv, error);
  if (!batch) return std::nullopt;
  return AppendParsed(*batch, delta_tsv, error);
}

std::optional<uint64_t> GraphStore::AppendParsed(const GraphDelta& batch,
                                                 std::string_view delta_tsv,
                                                 std::string* error) {
  obs::ScopedTimer append_timer(&StoreAppendLatency(), "append");
  obs::ScopedTimer validate_timer(nullptr, "validate");
  // Validate and absorb before anything touches disk, so the log never
  // holds a batch that cannot apply; a batch whose append fails is taken
  // back out. O(batch), not O(overlay).
  const LiveGraph::Mark mark = live_->mark();
  if (!live_->Absorb(batch, error)) {
    append_timer.Discard();
    validate_timer.Discard();
    return std::nullopt;
  }
  validate_timer.AddField("ops", overlay().ops.size());
  validate_timer.StopNs();
  auto seq = log_->Append(delta_tsv, error);
  if (!seq) {
    live_->Rollback(mark);
    append_timer.Discard();
    return std::nullopt;
  }
  stats_.last_seq = *seq;
  StoreAppendsTotal().Inc();
  append_timer.AddField("seq", *seq);
  // The batch changed the graph; the count is stale until a caller
  // persists the post-batch count via SetViolationCount.
  count_.Invalidate();
  return seq;
}

std::optional<uint64_t> GraphStore::violation_count(
    uint64_t fingerprint) const {
  return count_.Get(stats_.last_seq, fingerprint);
}

bool GraphStore::SetViolationCount(uint64_t count, uint64_t fingerprint,
                                   std::string* error) {
  count_.Set(count, stats_.last_seq, fingerprint);
  ViolationsRunning().Set(static_cast<double>(count));
  return WriteMeta(error);
}

bool GraphStore::WriteMeta(std::string* error) {
  return AtomicWriteFile(
      (fs::path(dir_) / kMetaFile).string(),
      MetaContent(stats_.anchor_seq, snapshot_file_,
                  count_.Persisted(stats_.last_seq)),
      error);
}

std::optional<uint64_t> GraphStore::Append(const GraphDelta& batch,
                                           std::string* error) {
  std::ostringstream os;
  SaveGraphDeltaTsv(base(), batch, os);
  return Append(std::move(os).str(), error);
}

bool GraphStore::ShouldCompact() const { return CompactionDue(opts_, *live_); }

bool GraphStore::Compact(std::string* error) {
  // No-op only when there is truly nothing to fold AND the anchor is
  // already current. Extras-only overlays must still fold (they change
  // the post-compaction base vocabulary), and empty batches must still
  // roll the anchor, so the log re-anchors at last_seq.
  const GraphDelta& overlay = live_->overlay();
  if (overlay.ops.empty() && overlay.extra_labels.empty() &&
      overlay.extra_attrs.empty() && overlay.extra_values.empty() &&
      stats_.anchor_seq == stats_.last_seq) {
    return true;
  }
  obs::ScopedTimer compact_timer(&StoreCompactLatency(), "compact",
                                 {{"seq", stats_.last_seq},
                                  {"overlay_ops", overlay.ops.size()}});
  PropertyGraph next = view().Materialize();
  uint64_t anchor = stats_.last_seq;
  std::string snapshot = SnapshotName(anchor);

  // Snapshot first, meta second: the meta rename is the commit point. A
  // crash before it leaves the old snapshot+log state authoritative (the
  // new snapshot file is an orphan Open() cleans up); a crash after it
  // leaves stale log records at/below the anchor, which replay skips.
  if (!AtomicWriteFile((fs::path(dir_) / snapshot).string(),
                       SaveGraphString(next), error)) {
    return false;
  }
  // Compaction does not advance last_seq, so a valid running count rides
  // through the meta commit unchanged.
  if (!AtomicWriteFile(
          (fs::path(dir_) / kMetaFile).string(),
          MetaContent(anchor, snapshot, count_.Persisted(stats_.last_seq)),
          error)) {
    return false;
  }
  if (!log_->DropThrough(anchor, error)) return false;
  if (snapshot != snapshot_file_) {
    std::error_code ec;
    fs::remove(fs::path(dir_) / snapshot_file_, ec);  // best effort
  }

  snapshot_file_ = snapshot;
  live_->Rebase(std::move(next));
  stats_.anchor_seq = anchor;
  ++stats_.compactions;
  StoreCompactionsTotal().Inc();
  return true;
}

bool GraphStore::MaybeCompact(std::string* error) {
  return ShouldCompact() ? Compact(error) : true;
}

PropertyGraph GraphStore::MaterializeCurrent() const {
  return view().Materialize();
}

ServingMetricsSnapshot GraphStore::MetricsSnapshot() const {
  ServingMetricsSnapshot snap;
  snap.anchor_seq = stats_.anchor_seq;
  snap.last_seq = stats_.last_seq;
  snap.fragments = 1;
  snap.replayed_batches = stats_.replayed_batches;
  snap.skipped_batches = stats_.skipped_batches;
  snap.overlay_ops = overlay().ops.size();
  snap.truncated_bytes = stats_.truncated_bytes;
  snap.compactions = stats_.compactions;
  return snap;
}

std::optional<IncrementalDiff> GraphStore::AppendAndDiff(
    const ViolationEngine& engine, std::string_view delta_tsv,
    const IncrementalOptions& opts, uint64_t* seq_out, std::string* error) {
  // The step diff anchors at what this batch touches: its ops in the
  // live view's id space, and that view's pre-batch degrees to pick each
  // edge op's endpoint. The same parsed batch is then appended and
  // absorbed into the view object the after side reads.
  auto batch = live_->Parse(delta_tsv, error);
  if (!batch) return std::nullopt;
  const BatchFootprint fp = BatchFootprint::Of(batch->ops, view());
  std::optional<uint64_t> seq;
  auto append = [&] {
    seq = AppendParsed(*batch, delta_tsv, error);
    return seq.has_value();
  };
  obs::ScopedTimer detect_timer(nullptr, "detect");
  auto sides = engine.DetectStep(view(), fp, fp.anchors, append, opts);
  if (!sides) {
    detect_timer.Discard();
    return std::nullopt;
  }
  if (seq_out) *seq_out = *seq;
  detect_timer.AddField("seq", *seq);
  detect_timer.AddField("anchors", fp.anchors.size());
  detect_timer.AddField("matches", sides->stats.matches_seen);
  detect_timer.StopNs();
  obs::ScopedTimer merge_timer(nullptr, "merge", {{"seq", *seq}});
  IncrementalDiff diff = StepDiff(*sides);
  // The live view is now the post-batch state: the feed payload renders
  // against it, byte-identical to rendering against a materialization.
  diff.payload = SerializeDiffPayload(view(), engine.rules(), diff);
  return diff;
}

}  // namespace gfd
