#include "serve/coordinator.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "graph/loader.h"
#include "graph/subgraph.h"
#include "obs/trace.h"
#include "serve/changefeed.h"
#include "serve/metrics.h"

namespace gfd {

namespace {
namespace fs = std::filesystem;

constexpr char kMetaFile[] = "coordinator.meta";
constexpr char kMetaMagic[] = "gfd-coordinator v2";
constexpr char kJournalFile[] = "routing.log";

void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

std::string GlobalSnapshotName(uint64_t seq) {
  return "global-snapshot-" + std::to_string(seq) + ".tsv";
}

// Global snapshots present in `dir`, by anchor sequence, ascending.
std::vector<uint64_t> ListGlobalSnapshots(const std::string& dir) {
  constexpr std::string_view kPrefix = "global-snapshot-";
  constexpr std::string_view kSuffix = ".tsv";
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
        0) {
      continue;
    }
    std::string mid = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    if (mid.empty() ||
        mid.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    seqs.push_back(std::stoull(mid));
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

std::string MetaContent(const Partition& p,
                        const std::optional<MetaCount>& count) {
  std::ostringstream out;
  out << kMetaMagic << '\n';
  out << "fragments " << p.num_fragments << '\n';
  out << "radius " << p.halo_radius << '\n';
  out << "replication " << p.replication << '\n';
  if (count) out << MetaCountLine(*count);
  // Ownership is part of the coordinator's identity: recomputing it from
  // an evolved graph would silently re-partition the anchor attribution,
  // so it is persisted verbatim.
  out << "owners";
  for (uint32_t o : p.node_owner) out << ' ' << o;
  out << '\n';
  return out.str();
}

struct MetaData {
  size_t fragments = 0;
  uint32_t radius = 0;
  double replication = 1.0;
  std::vector<uint32_t> owners;
  std::optional<MetaCount> count;
};

bool ParseMeta(const std::string& path, MetaData* meta, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, path + ": cannot open (not a coordinator?)");
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != kMetaMagic) {
    SetError(error, "bad magic in " + path);
    return false;
  }
  bool have_fragments = false;
  bool have_owners = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "fragments") {
      if (ls >> meta->fragments) have_fragments = true;
    } else if (key == "radius") {
      ls >> meta->radius;
    } else if (key == "replication") {
      ls >> meta->replication;
    } else if (key == "violations") {
      meta->count = ParseMetaCountFields(ls);
    } else if (key == "owners") {
      uint32_t o;
      while (ls >> o) meta->owners.push_back(o);
      have_owners = true;
    } else if (key == "border" || key == "owners_seq") {
      // Written by older builds: advisory border lists (residency is
      // recomputed from the live graph on open) and the sequence of the
      // last owner change (the owner table itself is what Open reads).
    } else {
      SetError(error, "unrecognized line in " + path + ": " + line);
      return false;
    }
  }
  if (!have_fragments || !have_owners || meta->radius < 1) {
    SetError(error, "incomplete coordinator meta in " + path);
    return false;
  }
  return true;
}

// The global batch a routing-journal record holds. A record is the batch
// itself, as a deltas.log record is. Older builds framed it as
// `G <bytes>\n<batch>\n`, followed by `F <f> <bytes>\n<sub-batch>\n` per
// fragment; the F frames are skipped. No delta record has the tag "G ",
// so an accepted batch never starts with it and the two forms cannot be
// confused.
std::optional<std::string> GlobalBatch(std::string_view payload) {
  if (!payload.starts_with("G ")) return std::string(payload);
  const size_t nl = payload.find('\n');
  size_t n = 0;
  const char* digits = payload.data() + 2;
  const char* digits_end = payload.data() + std::min(nl, payload.size());
  auto [end, ec] = std::from_chars(digits, digits_end, n);
  if (nl == std::string_view::npos || ec != std::errc() || end != digits_end ||
      nl + 1 + n >= payload.size() || payload[nl + 1 + n] != '\n') {
    return std::nullopt;
  }
  return std::string(payload.substr(nl + 1, n));
}

// Accounted size of a diff shipped fragment -> master.
uint64_t DiffBytes(const IncrementalDiff& diff) {
  uint64_t bytes = 0;
  for (const std::vector<Violation>* side : {&diff.added, &diff.removed}) {
    for (const Violation& v : *side) {
      bytes += sizeof(Violation) + v.match.size() * sizeof(NodeId);
    }
  }
  return bytes;
}

// Merges per-fragment violation lists. Ownership attribution makes the
// parts disjoint, so sorting the concatenation reproduces the exact
// single-node ordering.
std::vector<Violation> MergeSorted(std::vector<std::vector<Violation>> parts) {
  std::vector<Violation> out;
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void AddStats(IncrementalStats* into, const IncrementalStats& s) {
  into->affected_nodes += s.affected_nodes;
  into->anchor_plans += s.anchor_plans;
  into->anchors_scanned += s.anchors_scanned;
  into->matches_seen += s.matches_seen;
  into->literal_evals += s.literal_evals;
  into->violations_before += s.violations_before;
  into->violations_after += s.violations_after;
  into->groups_scanned += s.groups_scanned;
  into->groups_skipped += s.groups_skipped;
}

}  // namespace

bool Coordinator::Init(const std::string& dir, const PropertyGraph& g,
                       size_t fragments, uint32_t halo_radius,
                       std::string* error) {
  if (fragments == 0) {
    SetError(error, "fragment count must be >= 1");
    return false;
  }
  if (halo_radius < 1) {
    SetError(error, "halo radius must be >= 1");
    return false;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    SetError(error, "cannot create " + dir + ": " + ec.message());
    return false;
  }
  if (fs::exists(dir + "/" + kMetaFile)) {
    SetError(error, dir + " already holds a coordinator");
    return false;
  }

  Fragmentation frag = VertexCutPartition(g, fragments);
  Partition p = std::move(frag.partition);
  p.halo_radius = halo_radius;
  {
    std::ostringstream snap;
    SaveGraphTsv(g, snap, /*with_vocab=*/true);
    std::string werr;
    if (!AtomicWriteFile(dir + "/" + GlobalSnapshotName(0), snap.str(),
                         &werr)) {
      SetError(error, "global snapshot: " + werr);
      return false;
    }
  }
  {
    std::string jerr;
    if (!DeltaLog::Open(dir + "/" + kJournalFile, 1, &jerr)) {
      SetError(error, "routing journal: " + jerr);
      return false;
    }
  }
  std::string werr;
  if (!AtomicWriteFile(dir + "/" + kMetaFile, MetaContent(p, std::nullopt),
                       &werr)) {
    SetError(error, "meta: " + werr);
    return false;
  }
  return true;
}

std::optional<Coordinator> Coordinator::Open(const std::string& dir,
                                             const CoordinatorOptions& opts,
                                             std::string* error) {
  Coordinator c;
  c.dir_ = dir;
  c.opts_ = opts;
  MetaData meta;
  if (!ParseMeta(dir + "/" + kMetaFile, &meta, error)) return std::nullopt;
  if (meta.fragments == 0) {
    SetError(error, "coordinator meta has no fragments");
    return std::nullopt;
  }
  for (uint32_t o : meta.owners) {
    if (o >= meta.fragments) {
      SetError(error, "meta owner out of range");
      return std::nullopt;
    }
  }
  c.cluster_ = std::make_unique<Cluster>(meta.fragments);

  // The master's global graph: the newest snapshot the routing journal
  // bridges to the global sequence, plus the journal's later batches.
  std::vector<uint64_t> snaps = ListGlobalSnapshots(dir);
  if (snaps.empty()) {
    SetError(error, "no global snapshot in " + dir);
    return std::nullopt;
  }
  {
    std::string jerr;
    auto j = DeltaLog::Open(dir + "/" + kJournalFile, snaps.back() + 1, &jerr);
    if (!j) {
      SetError(error, "routing journal: " + jerr);
      return std::nullopt;
    }
    c.journal_ = std::move(*j);
  }
  std::vector<DeltaLogRecord> batches;
  for (const DeltaLogRecord& rec : c.journal_->records()) {
    auto batch = GlobalBatch(rec.payload);
    if (!batch) {
      SetError(error, "corrupt journal record " + std::to_string(rec.seq));
      return std::nullopt;
    }
    batches.push_back({rec.seq, std::move(*batch)});
  }
  uint64_t global_seq = snaps.back();
  if (!batches.empty()) global_seq = std::max(global_seq, batches.back().seq);
  auto bridges = [&](uint64_t s) {
    return s == global_seq ||
           (!batches.empty() && batches.front().seq <= s + 1 &&
            batches.back().seq == global_seq);
  };
  auto chosen = std::find_if(snaps.rbegin(), snaps.rend(), bridges);
  if (chosen == snaps.rend()) {
    SetError(error,
             "cannot reconstruct the global state: no snapshot bridges to "
             "sequence " +
                 std::to_string(global_seq));
    return std::nullopt;
  }
  const uint64_t anchor = *chosen;
  std::string gerr;
  auto g = LoadGraphTsvFile(dir + "/" + GlobalSnapshotName(anchor), &gerr);
  if (!g) {
    SetError(error, "global snapshot: " + gerr);
    return std::nullopt;
  }
  LiveGraph live(std::move(*g));
  auto replay = ReplayLog(batches, anchor, live, c.journal_->path(), error);
  if (!replay) return std::nullopt;

  // Residency once, under the meta's owner table; then every fragment
  // from the recovered graph -- the loaded snapshot itself when no record
  // followed it.
  Partition p;
  p.num_fragments = meta.fragments;
  p.halo_radius = meta.radius;
  p.node_owner = std::move(meta.owners);
  p.replication = meta.replication;
  c.index_ = RoutingIndex::Build(std::move(live), std::move(p), error);
  if (!c.index_) return std::nullopt;
  if (replay->replayed_batches == 0) {
    c.ExtractFragments(c.index_->live().base());
  } else {
    c.ExtractFragments(c.index_->view().Materialize());
  }

  c.stats_.anchor_seq = anchor;
  c.stats_.last_seq = replay->last_seq;
  c.stats_.replayed_batches = replay->replayed_batches;
  c.stats_.skipped_batches = replay->skipped_batches;
  c.count_.Restore(meta.count, c.stats_.last_seq);
  return c;
}

void Coordinator::ExtractFragments(const PropertyGraph& g) {
  fragments_.clear();
  for (const std::vector<char>& resident : index_->residency()) {
    fragments_.emplace_back(ExtractSubgraph(g, resident));
  }
}

CoordinatorStats Coordinator::stats() const {
  CoordinatorStats s = stats_;
  s.messages = cluster_->messages();
  s.bytes_shipped = cluster_->bytes();
  return s;
}

struct Coordinator::DiffContext {
  const ViolationEngine* engine = nullptr;
  const IncrementalOptions* opts = nullptr;
  std::vector<IncrementalDiff> parts;  // per-fragment step diffs
};

std::optional<uint64_t> Coordinator::ShipSequenced(
    RoutingIndex::ShipPlan&& plan, std::string_view global_tsv,
    DiffContext* diff_ctx, std::string* error) {
  const size_t n = fragments_.size();
  const uint64_t seq = stats_.last_seq + 1;

  // The journal append is the one durable write: once the global batch is
  // durable, a crash anywhere below is repaired by Open, which rebuilds
  // every fragment from the recovered global graph. A batch the journal
  // never took leaves the master's view again, so the failure rejects
  // only this batch.
  {
    obs::ScopedTimer append_timer(&StoreAppendLatency(), "append",
                                  {{"seq", seq}});
    std::string jerr;
    auto jseq = journal_->Append(global_tsv, &jerr);
    if (!jseq) {
      append_timer.Discard();
      index_->Rollback(plan);
      SetError(error, "routing journal: " + jerr);
      return std::nullopt;
    }
    if (*jseq != seq) {
      degraded_ = true;
      SetError(error, "routing journal out of sequence");
      return std::nullopt;
    }
    StoreAppendsTotal().Inc();
  }

  // Per-fragment anchor seeds: the batch's anchors it owns. Bucketing a
  // sorted list by owner keeps each bucket sorted.
  std::vector<std::vector<NodeId>> seeds(n);
  if (diff_ctx) {
    std::span<const uint32_t> owner = index_->partition().node_owner;
    for (NodeId v : plan.footprint.anchors) seeds[owner[v]].push_back(v);
    diff_ctx->parts.resize(n);
  }

  std::vector<std::string> errs(n);
  cluster_->RunStep([&](size_t f) {
    auto absorb = [&] {
      std::string ferr;
      auto batch = fragments_[f].Parse(plan.payloads[f], &ferr);
      if (!batch || !fragments_[f].Absorb(*batch, &ferr)) {
        errs[f] = "fragment " + std::to_string(f) + ": " + ferr;
        return false;
      }
      return true;
    };
    if (!diff_ctx) {
      absorb();
      return;
    }
    // Both views around the sub-batch hold every match anchored at an
    // owned node (halo radius >= pattern radius), so each side equals the
    // global one at this fragment's seeds and the global footprint gates.
    auto sides = diff_ctx->engine->DetectStep(
        fragments_[f].view(), plan.footprint, seeds[f], absorb,
        *diff_ctx->opts);
    if (!sides) return;
    if (obs::TraceLog* trace = obs::ActiveTrace()) {
      trace->Emit("detect",
                  {{"seq", seq},
                   {"fragment", f},
                   {"anchors", seeds[f].size()},
                   {"matches", sides->stats.matches_seen}},
                  static_cast<int64_t>(sides->detect_ns));
    }
    diff_ctx->parts[f] = StepDiff(*sides);
  });
  for (size_t f = 0; f < n; ++f) {
    cluster_->CountShipment(1, plan.payloads[f].size());
    stats_.bytes_owned_shipped += plan.owned_bytes[f];
    stats_.bytes_halo_shipped += plan.halo_bytes[f];
    stats_.ops_routed += plan.routed_ops[f];
    stats_.ops_maintenance += plan.halo_ops[f];
    FragmentBytesShipped(f, "owned").Inc(plan.owned_bytes[f]);
    FragmentBytesShipped(f, "halo").Inc(plan.halo_bytes[f]);
    FragmentOpsShipped(f, "routed").Inc(plan.routed_ops[f]);
    FragmentOpsShipped(f, "maintenance").Inc(plan.halo_ops[f]);
    obs::EmitTrace("ship", {{"seq", seq},
                            {"fragment", f},
                            {"bytes", plan.payloads[f].size()}});
  }
  for (size_t f = 0; f < n; ++f) {
    if (!errs[f].empty()) {
      degraded_ = true;
      SetError(error, errs[f] + "; coordinator degraded, reopen to recover");
      return std::nullopt;
    }
  }
  if (diff_ctx) {
    for (const IncrementalDiff& part : diff_ctx->parts) {
      cluster_->CountShipment(1, DiffBytes(part));
    }
  }
  index_->Commit(std::move(plan));
  stats_.last_seq = seq;
  count_.Invalidate();
  return seq;
}

std::optional<uint64_t> Coordinator::Append(std::string_view delta_tsv,
                                            std::string* error) {
  if (!CheckNotDegraded(error)) return std::nullopt;
  obs::ScopedTimer route_timer(nullptr, "route",
                               {{"seq", stats_.last_seq + 1}});
  auto plan = index_->PlanBatch(delta_tsv, error);
  if (!plan) {
    route_timer.Discard();
    return std::nullopt;
  }
  route_timer.StopNs();
  auto seq = ShipSequenced(std::move(*plan), delta_tsv, nullptr, error);
  if (!seq) return std::nullopt;
  ++stats_.batches;
  return seq;
}

std::optional<IncrementalDiff> Coordinator::AppendAndDiff(
    const ViolationEngine& engine, std::string_view delta_tsv,
    const IncrementalOptions& opts, uint64_t* seq_out, std::string* error) {
  if (!CheckNotDegraded(error)) return std::nullopt;
  const uint32_t need = engine.MaxPatternRadius();
  if (need > index_->partition().halo_radius) {
    SetError(error, "rule pattern radius " + std::to_string(need) +
                        " exceeds the partition halo radius " +
                        std::to_string(index_->partition().halo_radius) +
                        "; re-init the coordinator with a larger radius");
    return std::nullopt;
  }

  obs::ScopedTimer route_timer(nullptr, "route",
                               {{"seq", stats_.last_seq + 1}});
  auto plan = index_->PlanBatch(delta_tsv, error);
  if (!plan) {
    route_timer.Discard();
    return std::nullopt;
  }
  route_timer.StopNs();

  DiffContext ctx;
  ctx.engine = &engine;
  ctx.opts = &opts;
  auto seq = ShipSequenced(std::move(*plan), delta_tsv, &ctx, error);
  if (!seq) return std::nullopt;
  ++stats_.batches;

  // Ownership attribution partitions the step diff, so merging the
  // per-fragment added and removed lists reproduces the single-node step
  // diff record for record.
  obs::ScopedTimer merge_timer(nullptr, "merge", {{"seq", *seq}});
  IncrementalDiff diff;
  std::vector<std::vector<Violation>> added;
  std::vector<std::vector<Violation>> removed;
  for (IncrementalDiff& part : ctx.parts) {
    added.push_back(std::move(part.added));
    removed.push_back(std::move(part.removed));
    AddStats(&diff.stats, part.stats);
  }
  diff.added = MergeSorted(std::move(added));
  diff.removed = MergeSorted(std::move(removed));
  // The master's global view absorbed the batch when it was planned; the
  // payload renders against it, as it would against MaterializeCurrent().
  diff.payload = SerializeDiffPayload(index_->view(), engine.rules(), diff);
  if (seq_out) *seq_out = *seq;
  return diff;
}

std::optional<uint64_t> Coordinator::Rebalance(NodeId node,
                                               uint32_t to_fragment,
                                               std::string* error) {
  if (!CheckNotDegraded(error)) return std::nullopt;
  obs::ScopedTimer rebalance_timer(&RebalanceLatency(), "rebalance",
                                   {{"node", node}, {"to", to_fragment}});
  auto plan = index_->PlanRebalance(node, to_fragment, error);
  if (!plan) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  const uint64_t seq = stats_.last_seq + 1;
  rebalance_timer.AddField("seq", seq);

  // The graph (hence the violation set) is unchanged; carry the running
  // count across the consumed sequence number.
  auto carried = count_.Persisted(stats_.last_seq);

  // The owner table first, its journal record second: Open reads the
  // table from the meta, so a recovered rebalance seq always comes with
  // the new table.
  {
    Partition moved = index_->partition();
    moved.node_owner = plan->new_owner;
    std::string werr;
    if (!AtomicWriteFile(dir_ + "/" + kMetaFile, MetaContent(moved, carried),
                         &werr)) {
      index_->Rollback(*plan);
      SetError(error, "meta: " + werr);
      rebalance_timer.Discard();
      return std::nullopt;
    }
  }

  // An empty global batch: the journal numbers the rebalance like any
  // batch, and replay absorbs nothing for it.
  auto s = ShipSequenced(std::move(*plan), "", nullptr, error);
  if (!s) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  ++stats_.rebalances;
  RebalancesTotal().Inc();
  if (carried) {
    count_.Set(carried->count, seq, carried->fingerprint);
    if (!WriteMeta(error)) return std::nullopt;
  }
  return seq;
}

bool Coordinator::ShouldCompact() const {
  return CompactionDue(opts_.store, index_->live());
}

bool Coordinator::CompactAll(std::string* error) {
  if (!CheckNotDegraded(error)) return false;
  const uint64_t seq = stats_.last_seq;
  const size_t overlay_ops = index_->live().overlay().ops.size();
  obs::ScopedTimer compact_timer(&StoreCompactLatency(), "compact",
                                 {{"seq", seq}, {"overlay_ops", overlay_ops}});

  // The global snapshot is the round's commit point: once it is durable,
  // Open recovers from it, skipping whatever the journal still holds at
  // or below its sequence. The journal re-anchors after it.
  PropertyGraph current = index_->view().Materialize();
  {
    std::ostringstream snap;
    SaveGraphTsv(current, snap, /*with_vocab=*/true);
    std::string werr;
    if (!AtomicWriteFile(dir_ + "/" + GlobalSnapshotName(seq), snap.str(),
                         &werr)) {
      compact_timer.Discard();
      SetError(error, "global snapshot: " + werr);
      return false;
    }
  }
  ExtractFragments(current);
  index_->Compact(std::move(current));
  std::string jerr;
  if (!journal_->DropThrough(seq, &jerr)) {
    compact_timer.Discard();
    SetError(error, "routing journal: " + jerr);
    return false;
  }
  std::error_code ec;
  for (uint64_t old : ListGlobalSnapshots(dir_)) {
    if (old != seq) fs::remove(dir_ + "/" + GlobalSnapshotName(old), ec);
  }
  stats_.anchor_seq = seq;
  ++stats_.compactions;
  StoreCompactionsTotal().Inc();
  return true;
}

bool Coordinator::MaybeCompactAll(std::string* error) {
  return ShouldCompact() ? CompactAll(error) : true;
}

std::optional<uint64_t> Coordinator::violation_count(
    uint64_t fingerprint) const {
  return count_.Get(stats_.last_seq, fingerprint);
}

bool Coordinator::SetViolationCount(uint64_t count, uint64_t fingerprint,
                                    std::string* error) {
  count_.Set(count, stats_.last_seq, fingerprint);
  ViolationsRunning().Set(static_cast<double>(count));
  return WriteMeta(error);
}

PropertyGraph Coordinator::MaterializeCurrent() const {
  return index_->view().Materialize();
}

ServingMetricsSnapshot Coordinator::MetricsSnapshot() const {
  const CoordinatorStats s = stats();
  ServingMetricsSnapshot snap;
  snap.anchor_seq = s.anchor_seq;
  snap.last_seq = s.last_seq;
  snap.fragments = fragments_.size();
  snap.replayed_batches = s.replayed_batches;
  snap.skipped_batches = s.skipped_batches;
  snap.overlay_ops = index_->live().overlay().ops.size();
  snap.truncated_bytes = journal_->open_stats().truncated_bytes;
  snap.compactions = s.compactions;
  snap.batches = s.batches;
  snap.rebalances = s.rebalances;
  snap.messages = s.messages;
  snap.bytes_shipped = s.bytes_shipped;
  snap.bytes_owned_shipped = s.bytes_owned_shipped;
  snap.bytes_halo_shipped = s.bytes_halo_shipped;
  snap.ops_routed = s.ops_routed;
  snap.ops_maintenance = s.ops_maintenance;
  return snap;
}

bool Coordinator::CheckNotDegraded(std::string* error) const {
  if (!degraded_) return true;
  SetError(error,
           "coordinator degraded by a partial batch failure; reopen to "
           "recover");
  return false;
}

bool Coordinator::WriteMeta(std::string* error) {
  const auto count = count_.Persisted(stats_.last_seq);
  std::string werr;
  if (!AtomicWriteFile(dir_ + "/" + kMetaFile,
                       MetaContent(index_->partition(), count), &werr)) {
    SetError(error, "meta: " + werr);
    return false;
  }
  return true;
}

}  // namespace gfd
