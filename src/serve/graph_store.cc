#include "serve/graph_store.h"

#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <system_error>
#include <utility>

#include "graph/loader.h"
#include "obs/trace.h"
#include "serve/changefeed.h"
#include "serve/durable_io.h"
#include "serve/metrics.h"
#include "util/timer.h"

namespace gfd {

namespace fs = std::filesystem;

namespace {

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

// The step's plan on `pre`, the view just before the batch with
// footprint `fp`, traced as `route`.
StepPlan RouteServedStep(const ViolationEngine& engine, const GraphView& pre,
                         const BatchFootprint& fp, uint64_t seq) {
  obs::ScopedTimer timer(nullptr, "route", {{"seq", seq}});
  StepPlan plan = engine.PlanStep(pre, fp);
  timer.AddField("write_units", plan.write_units());
  timer.AddField("edge_units", plan.edge_units());
  return plan;
}

// The feed payload of `diff` on `post`, the view just after the batch,
// traced as `render` (inside `merge`).
std::string RenderServedPayload(const GraphView& post,
                                std::span<const Gfd> rules,
                                const IncrementalDiff& diff, uint64_t seq) {
  obs::ScopedTimer timer(nullptr, "render", {{"seq", seq}});
  std::string payload = SerializeDiffPayload(post, rules, diff);
  timer.AddField("lines", diff.added.size() + diff.removed.size());
  timer.AddField("bytes", payload.size());
  return payload;
}

// What replaying a log onto a live graph did.
struct ReplayStats {
  uint64_t last_seq = 0;        // the anchor, or the last record absorbed
  size_t replayed_batches = 0;  // records absorbed
  size_t skipped_batches = 0;   // records at or below the anchor
};

// The replay Open recovers through: absorbs every record of `records`
// past `anchor` into `live`, in sequence order, exactly as the live path
// absorbed it (LiveGraph::Parse, then Absorb). Records at or below
// `anchor` -- already in the snapshot `live` was built from -- are
// skipped; the rest must continue the chain at anchor+1. Nullopt (with
// *error naming `source` and the record) when a record does not
// continue the chain or cannot apply. Emits the `replay` trace event and
// the gfd_store_replay_* metrics.
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
    if (!batch || !live.Validate(*batch, &replay_error)) {
      SetError(error, source + ": record " + std::to_string(rec.seq) + ": " +
                          replay_error);
      return std::nullopt;
    }
    live.Absorb(*batch);
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

}  // namespace

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
  auto records = store.log_->ReadRecords(error);
  if (!records) return std::nullopt;
  auto replay =
      ReplayLog(*records, anchor, *store.live_, store.log_->path(), error);
  if (!replay) return std::nullopt;
  store.stats_.last_seq = replay->last_seq;
  store.stats_.replayed_batches = replay->replayed_batches;
  store.stats_.skipped_batches = replay->skipped_batches;

  // The persisted count is trusted only when it was taken at exactly the
  // state replay reconstructed: a torn tail (count ahead) or appends that
  // never folded their diff back in (count behind) both invalidate it.
  if (count && count->seq == store.stats_.last_seq) store.count_ = count;
  store.meta_count_ = count;

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
  // The serving step with nothing between its stage and its commit but
  // the absorb.
  auto batch = live_->Parse(delta_tsv, error);
  const auto seq = batch ? Stage(*batch, delta_tsv, error) : std::nullopt;
  if (!seq) return std::nullopt;
  Absorb(*batch);
  if (!Commit(error)) return std::nullopt;
  return seq;
}

std::optional<uint64_t> GraphStore::Stage(const GraphDelta& batch,
                                          std::string_view delta_tsv,
                                          std::string* error) {
  obs::ScopedTimer append_timer(&StoreAppendLatency(), "append");
  {
    // Validated before anything touches disk, so the log never holds a
    // batch that cannot apply. O(batch), not O(overlay).
    const size_t ops = overlay().ops.size() + batch.ops.size();
    obs::ScopedTimer validate_timer(nullptr, "validate", {{"ops", ops}});
    if (!live_->Validate(batch, error)) {
      validate_timer.Discard();
      append_timer.Discard();
      return std::nullopt;
    }
  }
  std::string log_error;
  const auto seq = log_->Stage(delta_tsv, &log_error);
  if (!seq) {
    append_timer.Discard();
    SetError(error, std::string(kNotDurableError) + log_error);
    return std::nullopt;
  }
  append_timer.AddField("seq", *seq);
  staged_ = Staged{*seq, live_->mark()};
  return seq;
}

void GraphStore::Absorb(const GraphDelta& batch) { live_->Absorb(batch); }

bool GraphStore::Commit(std::string* error) {
  const Staged staged = *staged_;
  staged_.reset();
  obs::ScopedTimer wait_timer(&StoreSyncWaitLatency(), "sync_wait",
                              {{"seq", staged.seq}});
  std::string log_error;
  if (log_->Commit(&log_error)) {
    wait_timer.StopNs();
    stats_.last_seq = staged.seq;
    StoreAppendsTotal().Inc();
    return true;
  }
  wait_timer.Discard();
  // The log cut the record back out; take the batch back out of memory.
  live_->Rollback(staged.mark);
  SetError(error, std::string(kNotDurableError) + log_error);
  return false;
}

std::optional<uint64_t> GraphStore::violation_count(
    uint64_t fingerprint) const {
  const std::optional<MetaCount> c = count();
  if (c && c->fingerprint == fingerprint) return c->count;
  return std::nullopt;
}

bool GraphStore::SetViolationCount(uint64_t count, uint64_t fingerprint,
                                   std::string* error) {
  count_ = MetaCount{count, stats_.last_seq, fingerprint};
  ViolationsRunning().Set(static_cast<double>(count));
  return WriteMeta(stats_.anchor_seq, snapshot_file_, error);
}

bool GraphStore::WriteMeta(uint64_t anchor, const std::string& snapshot_file,
                           std::string* error) {
  const std::optional<MetaCount> count = this->count();
  if (!AtomicWriteFile((fs::path(dir_) / kMetaFile).string(),
                       MetaContent(anchor, snapshot_file, count), error)) {
    return false;
  }
  meta_count_ = count;
  return true;
}

bool GraphStore::ShouldCompact() const {
  const size_t ops = overlay().ops.size();
  if (ops == 0) return false;
  if (opts_.compact_min_ops > 0 && ops >= opts_.compact_min_ops) return true;
  const double edges = static_cast<double>(base().NumEdges());
  return opts_.compact_min_fraction > 0 &&
         static_cast<double>(ops) >= opts_.compact_min_fraction * edges;
}

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
  // The feed writes its records unsynced and re-derives a lost tail from
  // this log on open; the records the meta commit re-anchors past must be
  // durable in the feed first.
  if (!SyncFeedLog(dir_, error)) {
    compact_timer.Discard();
    return false;
  }
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
  if (!WriteMeta(anchor, snapshot, error)) return false;
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
  // Parse, then stage: the batch is validated and its record written, and
  // the record's fsync runs on the log's syncer while the step computes.
  // The parse span ends with the parse but takes the seq Stage assigns.
  obs::ScopedTimer parse_timer(nullptr, "parse");
  auto batch = live_->Parse(delta_tsv, error);
  parse_timer.Hold();
  const auto seq = batch ? Stage(*batch, delta_tsv, error) : std::nullopt;
  if (!seq) {
    parse_timer.Discard();
    return std::nullopt;
  }
  parse_timer.AddField("seq", *seq);
  parse_timer.AddField("ops", batch->ops.size());
  parse_timer.StopNs();
  // The route plans the step's units once, on the pre-batch view.
  const BatchFootprint fp = BatchFootprint::Of(batch->ops);
  const StepPlan plan = RouteServedStep(engine, view(), fp, *seq);
  // The absorb is the step's one apply, between the plan's two sides.
  auto absorb = [&] {
    obs::ScopedTimer absorb_timer(nullptr, "absorb",
                                  {{"seq", *seq}, {"ops", batch->ops.size()}});
    Absorb(*batch);
  };
  const StepSides sides = engine.DetectStep(view(), fp, plan, absorb, opts);
  if (obs::TraceLog* trace = obs::ActiveTrace()) {
    const IncrementalStats& s = sides.stats;
    trace->Emit("detect",
                {{"seq", *seq},
                 {"write_units", s.write_units},
                 {"edge_units", s.edge_units},
                 {"matches", s.matches_seen}},
                static_cast<int64_t>(sides.detect_ns));
  }

  IncrementalDiff diff;
  {
    obs::ScopedTimer merge_timer(nullptr, "merge", {{"seq", *seq}});
    diff = StepDiff(sides);
    // The live view is now the post-batch state: the feed payload renders
    // against it, byte-identical to rendering against a materialization.
    diff.payload = RenderServedPayload(view(), engine.rules(), diff, *seq);
  }
  // Nothing leaves the step before its record is durable.
  if (!Commit(error)) return std::nullopt;
  if (seq_out) *seq_out = *seq;
  return diff;
}

bool GraphStore::Restep(const ViolationEngine& engine, uint64_t after_seq,
                        const RestepVisitor& visit,
                        const IncrementalOptions& opts,
                        std::string* error) const {
  if (after_seq < stats_.anchor_seq || after_seq > stats_.last_seq) {
    SetError(error, dir_ + ": the log does not hold every batch after " +
                        std::to_string(after_seq));
    return false;
  }
  // The log holds exactly the batches after the anchor, in order: absorb
  // those up to `after_seq` into a copy of the snapshot, then step the
  // rest, as AppendAndDiff stepped them.
  auto records = log_->ReadRecords(error);
  if (!records) return false;
  LiveGraph scratch{PropertyGraph(base())};
  for (const DeltaLogRecord& rec : *records) {
    auto batch = scratch.Parse(rec.payload, error);
    if (!batch || !scratch.Validate(*batch, error)) return false;
    auto absorb = [&] { scratch.Absorb(*batch); };
    if (rec.seq <= after_seq) {
      absorb();
      continue;
    }
    const BatchFootprint fp = BatchFootprint::Of(batch->ops);
    const StepPlan plan = engine.PlanStep(scratch.view(), fp);
    IncrementalDiff diff =
        StepDiff(engine.DetectStep(scratch.view(), fp, plan, absorb, opts));
    diff.payload = SerializeDiffPayload(scratch.view(), engine.rules(), diff);
    if (!visit(rec.seq, std::move(diff))) return false;
  }
  return true;
}

}  // namespace gfd
