#include "serve/coordinator.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <utility>

#include "graph/live_graph.h"
#include "graph/loader.h"
#include "obs/trace.h"
#include "serve/delta_log.h"
#include "serve/durable_io.h"
#include "serve/metrics.h"
#include "util/timer.h"

namespace gfd {

namespace {
namespace fs = std::filesystem;

constexpr char kMetaFile[] = "coordinator.meta";
constexpr char kMetaMagic[] = "gfd-coordinator v2";
// The journal older builds kept beside their global snapshots. A
// directory holding it has not been converted yet.
constexpr char kLegacyJournalFile[] = "routing.log";

void SetError(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

std::string MetaContent(const Partition& p) {
  std::ostringstream out;
  out << kMetaMagic << '\n';
  out << "fragments " << p.num_fragments << '\n';
  out << "radius " << p.halo_radius << '\n';
  out << "replication " << p.replication << '\n';
  // Ownership is part of the coordinator's identity: recomputing it from
  // an evolved graph would silently re-partition the anchor attribution,
  // so it is persisted verbatim.
  out << "owners";
  for (uint32_t o : p.node_owner) out << ' ' << o;
  out << '\n';
  return out.str();
}

bool WriteMeta(const std::string& dir, const Partition& p, std::string* error) {
  std::string werr;
  if (!AtomicWriteFile(dir + "/" + kMetaFile, MetaContent(p), &werr)) {
    SetError(error, "meta: " + werr);
    return false;
  }
  return true;
}

struct MetaData {
  Partition partition;
  // The running count older builds kept here; the conversion carries it.
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
  Partition& p = meta->partition;
  bool have_fragments = false;
  bool have_owners = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "fragments") {
      if (ls >> p.num_fragments) have_fragments = true;
    } else if (key == "radius") {
      ls >> p.halo_radius;
    } else if (key == "replication") {
      ls >> p.replication;
    } else if (key == "violations") {
      meta->count = ParseMetaCountFields(ls);
    } else if (key == "owners") {
      uint32_t o;
      while (ls >> o) p.node_owner.push_back(o);
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
  if (!have_fragments || !have_owners || p.halo_radius < 1) {
    SetError(error, "incomplete coordinator meta in " + path);
    return false;
  }
  if (p.num_fragments == 0) {
    SetError(error, "coordinator meta has no fragments");
    return false;
  }
  for (uint32_t o : p.node_owner) {
    if (o >= p.num_fragments) {
      SetError(error, "meta owner out of range");
      return false;
    }
  }
  return true;
}

// The graph a directory in an older layout holds, and its seq: the
// newest global-snapshot-<s>.tsv the routing.log journal bridges, plus
// the journal's later records. A record is the global batch, as a
// deltas.log record is; builds that kept fragment stores framed it as
// `G <bytes>\n<batch>\n` followed by `F <f> <bytes>\n<sub-batch>\n` per
// fragment, and the F frames are skipped. No delta record has the tag
// "G ", so the two forms cannot be confused. The only reader of those
// files.
std::optional<PropertyGraph> RecoverLegacyGraph(const std::string& dir,
                                                uint64_t* seq,
                                                std::string* error) {
  constexpr std::string_view kPrefix = "global-snapshot-";
  constexpr std::string_view kSuffix = ".tsv";
  std::vector<uint64_t> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) continue;
    const std::string mid = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    if (mid.empty() ||
        mid.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    snaps.push_back(std::stoull(mid));
  }
  std::sort(snaps.begin(), snaps.end());
  if (snaps.empty()) {
    SetError(error, "no global snapshot in " + dir);
    return std::nullopt;
  }
  std::string jerr;
  auto journal = DeltaLog::Open(dir + "/" + kLegacyJournalFile,
                                snaps.back() + 1, &jerr);
  if (!journal) {
    SetError(error, "routing journal: " + jerr);
    return std::nullopt;
  }
  auto records = journal->ReadRecords(error);
  if (!records) return std::nullopt;
  std::vector<DeltaLogRecord> batches;
  for (const DeltaLogRecord& rec : *records) {
    std::string_view body = rec.payload;
    if (body.starts_with("G ")) {
      const size_t nl = body.find('\n');
      size_t n = 0;
      const char* digits = body.data() + 2;
      const char* digits_end = body.data() + std::min(nl, body.size());
      auto [end, fc] = std::from_chars(digits, digits_end, n);
      if (nl == std::string_view::npos || fc != std::errc() ||
          end != digits_end || nl + 1 + n >= body.size() ||
          body[nl + 1 + n] != '\n') {
        SetError(error, "corrupt journal record " + std::to_string(rec.seq));
        return std::nullopt;
      }
      body = body.substr(nl + 1, n);
    }
    batches.push_back({rec.seq, std::string(body)});
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
  const std::string snapshot =
      dir + "/" + std::string(kPrefix) + std::to_string(*chosen) + ".tsv";
  std::string gerr;
  auto g = LoadGraphTsvFile(snapshot, &gerr);
  if (!g) {
    SetError(error, "global snapshot: " + gerr);
    return std::nullopt;
  }
  LiveGraph live(std::move(*g));
  auto replay = ReplayLog(batches, *chosen, live, journal->path(), error);
  if (!replay) return std::nullopt;
  *seq = replay->last_seq;
  return live.view().Materialize();
}

// Converts a directory an older build wrote into the master's layout:
// the recovered graph becomes the master's snapshot at its seq (store.meta
// last, as the commit), a count the old meta held at that seq moves to
// store.meta, the meta is rewritten without it, and the old files go --
// routing.log last, so an interrupted conversion runs again on the next
// Open and finds the store already committed.
bool ConvertLegacyLayout(const std::string& dir, const MetaData& meta,
                         std::string* error) {
  if (!fs::exists(dir + "/" + GraphStore::kMetaFile)) {
    uint64_t seq = 0;
    auto g = RecoverLegacyGraph(dir, &seq, error);
    if (!g || !GraphStore::Init(dir, *g, error, seq)) return false;
  }
  if (meta.count) {
    auto store = GraphStore::Open(dir, {}, error);
    if (!store) return false;
    if (meta.count->seq == store->last_seq() &&
        !store->SetViolationCount(meta.count->count, meta.count->fingerprint,
                                  error)) {
      return false;
    }
  }
  if (!WriteMeta(dir, meta.partition, error)) return false;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("global-snapshot-") || name.starts_with("frag-")) {
      fs::remove_all(entry.path(), ec);
    }
  }
  fs::remove(dir + "/" + kLegacyJournalFile, ec);
  return true;
}

// Merges per-fragment violation lists. Each match is evaluated only at
// the one fragment seeding its attributed anchor, so the parts are
// disjoint and sorting the concatenation reproduces the exact
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
  into->write_units += s.write_units;
  into->edge_units += s.edge_units;
  into->roots_scanned += s.roots_scanned;
  into->matches_seen += s.matches_seen;
  into->literal_evals += s.literal_evals;
  into->violations_before += s.violations_before;
  into->violations_after += s.violations_after;
  into->groups_scanned += s.groups_scanned;
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
  // A committed store (single or a coordinator's master), or the journal
  // of an older coordinator layout. A meta alone is an interrupted Init.
  for (const char* held : {GraphStore::kMetaFile, kLegacyJournalFile}) {
    if (fs::exists(dir + "/" + held)) {
      SetError(error, dir + " already holds a store or a coordinator");
      return false;
    }
  }
  Fragmentation frag = VertexCutPartition(g, fragments);
  Partition p = std::move(frag.partition);
  p.halo_radius = halo_radius;
  // The owner table first, the master second: its store.meta commits the
  // directory.
  return WriteMeta(dir, p, error) && GraphStore::Init(dir, g, error);
}

std::optional<Coordinator> Coordinator::Open(const std::string& dir,
                                             const CoordinatorOptions& opts,
                                             std::string* error) {
  MetaData meta;
  if (!ParseMeta(dir + "/" + kMetaFile, &meta, error)) return std::nullopt;
  if (fs::exists(dir + "/" + kLegacyJournalFile) &&
      !ConvertLegacyLayout(dir, meta, error)) {
    return std::nullopt;
  }
  Coordinator c;
  c.dir_ = dir;
  c.master_ = GraphStore::Open(dir, opts.store, error);
  if (!c.master_) return std::nullopt;
  if (meta.partition.node_owner.size() != c.view().NumNodes()) {
    SetError(error, "partition owner table does not match the graph");
    return std::nullopt;
  }
  c.partition_ = std::move(meta.partition);
  c.cluster_ = std::make_unique<Cluster>(c.partition_.num_fragments);
  c.stats_.seeds.assign(c.partition_.num_fragments, 0);
  return c;
}

std::optional<uint64_t> Coordinator::Append(std::string_view delta_tsv,
                                            std::string* error) {
  auto seq = master_->Append(delta_tsv, error);
  if (seq) ++stats_.batches;
  return seq;
}

std::optional<IncrementalDiff> Coordinator::AppendAndDiff(
    const ViolationEngine& engine, std::string_view delta_tsv,
    const IncrementalOptions& opts, uint64_t* seq_out, std::string* error) {
  const uint32_t radius = engine.MaxPatternRadius();
  if (radius > partition_.halo_radius) {
    SetError(error, "rule pattern radius " + std::to_string(radius) +
                        " exceeds the partition halo radius " +
                        std::to_string(partition_.halo_radius) +
                        "; re-init the coordinator with a larger radius");
    return std::nullopt;
  }
  auto batch = master_->live().Parse(delta_tsv, error);
  if (!batch) return std::nullopt;
  // The master validates the batch and writes its record, and the
  // record's fsync runs beside the step; an invalid batch never reaches
  // the log.
  const auto seq = master_->Stage(*batch, delta_tsv, error);
  if (!seq) return std::nullopt;
  // Everything below `route` reads the pre-batch view: the anchors, by
  // its degrees, so every backend serving this stream picks the same
  // ones; the step's units, planned once; and each fragment's seeds.
  const BatchFootprint footprint = BatchFootprint::Of(batch->ops, view());
  StopwatchNs route_watch;
  const StepPlan plan = PlanServedStep(engine, view(), footprint, *seq);
  const std::vector<std::vector<NodeId>> seeds =
      PlanSeeds(partition_, view(), batch->ops, footprint.anchors,
                plan.anchor_costs(), radius);
  const std::vector<StepPlan> shares = plan.Split(seeds);
  if (obs::TraceLog* trace = obs::ActiveTrace()) {
    trace->Emit("route", {{"seq", *seq}, {"anchors", footprint.anchors.size()}},
                static_cast<int64_t>(route_watch.ElapsedNs()));
  }

  // The master's absorb is the step's one apply, between the fragments'
  // two sides.
  auto absorb = [&] {
    master_->Absorb(*batch);
    return true;
  };
  auto each_fragment = [this](const std::function<void(size_t)>& side) {
    cluster_->RunStep(side);
  };
  const std::vector<StepSides> sides =
      *engine.DetectStep(view(), footprint, shares, absorb, opts,
                         each_fragment);

  // The seeds partition the anchors, so the per-fragment added and
  // removed lists partition the step diff, and merging them reproduces
  // the single-node step diff record for record.
  IncrementalDiff diff;
  {
    obs::ScopedTimer merge_timer(nullptr, "merge", {{"seq", *seq}});
    std::vector<std::vector<Violation>> added;
    std::vector<std::vector<Violation>> removed;
    for (size_t f = 0; f < sides.size(); ++f) {
      const StepSides& side = sides[f];
      if (obs::TraceLog* trace = obs::ActiveTrace()) {
        trace->Emit("detect",
                    {{"seq", *seq},
                     {"fragment", f},
                     {"anchors", seeds[f].size()},
                     {"write_units", side.stats.write_units},
                     {"edge_units", side.stats.edge_units},
                     {"matches", side.stats.matches_seen}},
                    static_cast<int64_t>(side.detect_ns));
      }
      IncrementalDiff part = StepDiff(side);
      added.push_back(std::move(part.added));
      removed.push_back(std::move(part.removed));
      AddStats(&diff.stats, part.stats);
    }
    diff.added = MergeSorted(std::move(added));
    diff.removed = MergeSorted(std::move(removed));
    // The master's view absorbed the batch; the payload renders against
    // it, as it would against MaterializeCurrent().
    diff.payload = RenderServedPayload(view(), engine.rules(), diff, *seq);
  }
  // Nothing leaves the step before the master's record is durable.
  if (!master_->Commit(error)) return std::nullopt;
  ++stats_.batches;
  for (size_t f = 0; f < sides.size(); ++f) {
    stats_.seeds[f] += seeds[f].size();
    FragmentMatches(f).Inc(sides[f].stats.matches_seen);
  }
  if (seq_out) *seq_out = *seq;
  return diff;
}

std::optional<uint64_t> Coordinator::Rebalance(NodeId node,
                                               uint32_t to_fragment,
                                               std::string* error) {
  if (node >= partition_.node_owner.size()) {
    SetError(error, "rebalance: node id out of range");
    return std::nullopt;
  }
  if (to_fragment >= partition_.num_fragments) {
    SetError(error, "rebalance: fragment id out of range");
    return std::nullopt;
  }
  if (partition_.node_owner[node] == to_fragment) {
    SetError(error, "rebalance: node already owned by fragment " +
                        std::to_string(to_fragment));
    return std::nullopt;
  }
  obs::ScopedTimer rebalance_timer(&RebalanceLatency(), "rebalance",
                                   {{"node", node}, {"to", to_fragment}});
  // The graph (hence the violation set) is unchanged; carry the running
  // count across the consumed sequence number.
  const std::optional<MetaCount> carried = master_->count();
  // The owner table first, its batch second: Open reads the table from
  // the meta, so a recovered rebalance seq always comes with the new
  // table.
  Partition moved = partition_;
  moved.node_owner[node] = to_fragment;
  if (!WriteMeta(dir_, moved, error)) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  partition_ = std::move(moved);
  // An empty batch: the master numbers the rebalance like any batch, and
  // replay absorbs nothing for it.
  auto seq = master_->Append("", error);
  if (!seq) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  rebalance_timer.AddField("seq", *seq);
  ++stats_.rebalances;
  RebalancesTotal().Inc();
  if (carried && !master_->SetViolationCount(carried->count,
                                             carried->fingerprint, error)) {
    return std::nullopt;
  }
  return seq;
}

bool Coordinator::ShouldCompact() const { return master_->ShouldCompact(); }

bool Coordinator::Compact(std::string* error) {
  return master_->Compact(error);
}

bool Coordinator::MaybeCompact(std::string* error) {
  return master_->MaybeCompact(error);
}

std::optional<uint64_t> Coordinator::violation_count(
    uint64_t fingerprint) const {
  return master_->violation_count(fingerprint);
}

bool Coordinator::SetViolationCount(uint64_t count, uint64_t fingerprint,
                                    std::string* error) {
  return master_->SetViolationCount(count, fingerprint, error);
}

PropertyGraph Coordinator::MaterializeCurrent() const {
  return master_->MaterializeCurrent();
}

ServingMetricsSnapshot Coordinator::MetricsSnapshot() const {
  ServingMetricsSnapshot snap = master_->MetricsSnapshot();
  snap.fragments = partition_.num_fragments;
  snap.batches = stats_.batches;
  snap.rebalances = stats_.rebalances;
  return snap;
}

}  // namespace gfd
