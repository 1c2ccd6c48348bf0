#include "serve/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "graph/loader.h"
#include "graph/subgraph.h"
#include "obs/trace.h"
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

std::string FragmentDir(const std::string& dir, size_t f) {
  return dir + "/frag-" + std::to_string(f);
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

std::string MetaContent(const Partition& p, uint64_t owners_seq,
                        const std::optional<MetaCount>& count) {
  std::ostringstream out;
  out << kMetaMagic << '\n';
  out << "fragments " << p.num_fragments << '\n';
  out << "radius " << p.halo_radius << '\n';
  out << "owners_seq " << owners_seq << '\n';
  out << "replication " << p.replication << '\n';
  if (count) out << MetaCountLine(*count);
  // Ownership is part of the coordinator's identity: recomputing it from
  // an evolved graph would silently re-partition the anchor attribution,
  // so it is persisted verbatim.
  out << "owners";
  for (uint32_t o : p.node_owner) out << ' ' << o;
  out << '\n';
  // Border lists are advisory (status/introspection); residency is
  // recomputed from the live graph on open.
  for (size_t f = 0; f < p.borders.size(); ++f) {
    out << "border " << f;
    for (NodeId v : p.borders[f]) out << ' ' << v;
    out << '\n';
  }
  return out.str();
}

struct MetaData {
  size_t fragments = 0;
  uint32_t radius = 0;
  uint64_t owners_seq = 0;
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
    } else if (key == "owners_seq") {
      ls >> meta->owners_seq;
    } else if (key == "replication") {
      ls >> meta->replication;
    } else if (key == "violations") {
      meta->count = ParseMetaCountFields(ls);
    } else if (key == "owners") {
      uint32_t o;
      while (ls >> o) meta->owners.push_back(o);
      have_owners = true;
    } else if (key == "border") {
      // Advisory; skipped.
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

// One routing-journal record: the original global batch plus every
// fragment's routed sub-batch, length-framed so arbitrary TSV bytes
// survive the round trip.
//
//   G <bytes>\n<global batch>\n
//   F <f> <bytes>\n<sub-batch f>\n   for f = 0 .. fragments-1
std::string JournalPayload(std::string_view global_tsv,
                           const std::vector<std::string>& frags) {
  std::string out;
  out += "G " + std::to_string(global_tsv.size()) + "\n";
  out.append(global_tsv);
  out += '\n';
  for (size_t f = 0; f < frags.size(); ++f) {
    out +=
        "F " + std::to_string(f) + " " + std::to_string(frags[f].size()) + "\n";
    out += frags[f];
    out += '\n';
  }
  return out;
}

bool ParseJournalPayload(const std::string& payload, size_t fragments,
                         std::string* global_tsv,
                         std::vector<std::string>* frags, std::string* error) {
  size_t pos = 0;
  auto next_line = [&](std::string* out_line) {
    size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) return false;
    *out_line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  auto read_body = [&](size_t n, std::string* body) {
    if (pos + n >= payload.size() || payload[pos + n] != '\n') return false;
    body->assign(payload, pos, n);
    pos += n + 1;
    return true;
  };
  std::string header;
  std::string tag;
  size_t n = 0;
  if (!next_line(&header)) {
    SetError(error, "corrupt routing journal record");
    return false;
  }
  {
    std::istringstream hs(header);
    if (!(hs >> tag >> n) || tag != "G" || !read_body(n, global_tsv)) {
      SetError(error, "corrupt routing journal record");
      return false;
    }
  }
  frags->assign(fragments, "");
  for (size_t f = 0; f < fragments; ++f) {
    size_t id = 0;
    if (!next_line(&header)) {
      SetError(error, "corrupt routing journal record");
      return false;
    }
    std::istringstream hs(header);
    if (!(hs >> tag >> id >> n) || tag != "F" || id != f ||
        !read_body(n, &(*frags)[f])) {
      SetError(error, "corrupt routing journal record");
      return false;
    }
  }
  return true;
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
  FragmentResidency resident = ComputeResidency(g, p);
  FillBorders(&p, resident);

  // Each fragment starts from its resident subgraph -- owned partition
  // plus halo -- never the whole graph.
  for (size_t f = 0; f < fragments; ++f) {
    std::string ferr;
    if (!GraphStore::Init(FragmentDir(dir, f), ExtractSubgraph(g, resident[f]),
                          &ferr)) {
      SetError(error, "fragment " + std::to_string(f) + ": " + ferr);
      return false;
    }
  }
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
  if (!AtomicWriteFile(dir + "/" + kMetaFile,
                       MetaContent(p, /*owners_seq=*/0, std::nullopt), &werr)) {
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
  c.owners_seq_ = meta.owners_seq;
  c.cluster_ = std::make_unique<Cluster>(meta.fragments);

  // Every fragment store recovers independently from its local log;
  // fragments lost outright are rebuilt below from the global state.
  std::vector<std::optional<GraphStore>> opened(meta.fragments);
  uint64_t frag_max = 0;
  for (size_t f = 0; f < meta.fragments; ++f) {
    std::string ferr;
    auto s = GraphStore::Open(FragmentDir(dir, f), opts.store, &ferr);
    if (!s) continue;
    frag_max = std::max(frag_max, s->last_seq());
    opened[f] = std::move(*s);
  }

  // Recover the master's global state from the newest snapshot the
  // routing journal can bridge to the global sequence, preferring the
  // common fragment anchor so a clean open needs no re-compaction.
  std::vector<uint64_t> snaps = ListGlobalSnapshots(dir);
  if (snaps.empty()) {
    SetError(error, "no global snapshot in " + dir);
    return std::nullopt;
  }
  uint64_t provisional = std::max(frag_max, snaps.back());
  {
    std::string jerr;
    auto j = DeltaLog::Open(dir + "/" + kJournalFile, provisional + 1, &jerr);
    if (!j) {
      SetError(error, "routing journal: " + jerr);
      return std::nullopt;
    }
    c.journal_ = std::move(*j);
  }
  auto records = c.journal_->records();
  uint64_t global_seq = provisional;
  if (!records.empty()) global_seq = std::max(global_seq, records.back().seq);

  auto bridgeable = [&](uint64_t x) {
    if (x > global_seq) return false;
    if (x == global_seq) return true;
    if (records.empty()) return false;
    return records.front().seq <= x + 1 && records.back().seq >= global_seq;
  };
  std::optional<uint64_t> common_anchor;
  bool anchors_equal = true;
  for (const auto& s : opened) {
    if (!s) continue;
    uint64_t a = s->stats().anchor_seq;
    if (!common_anchor) {
      common_anchor = a;
    } else if (*common_anchor != a) {
      anchors_equal = false;
    }
  }
  std::optional<uint64_t> chosen;
  if (anchors_equal && common_anchor &&
      std::binary_search(snaps.begin(), snaps.end(), *common_anchor) &&
      bridgeable(*common_anchor)) {
    chosen = *common_anchor;
  }
  if (!chosen) {
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
      if (bridgeable(*it)) {
        chosen = *it;
        break;
      }
    }
  }
  if (!chosen) {
    SetError(error,
             "cannot reconstruct the global state: no snapshot bridges to "
             "sequence " +
                 std::to_string(global_seq));
    return std::nullopt;
  }
  const uint64_t master_anchor = *chosen;
  std::string gerr;
  auto g =
      LoadGraphTsvFile(dir + "/" + GlobalSnapshotName(master_anchor), &gerr);
  if (!g) {
    SetError(error, "global snapshot: " + gerr);
    return std::nullopt;
  }
  if (meta.owners.size() != g->NumNodes()) {
    SetError(error, "ownership table does not match the graph");
    return std::nullopt;
  }
  Partition p;
  p.num_fragments = meta.fragments;
  p.halo_radius = meta.radius;
  p.node_owner = std::move(meta.owners);
  p.replication = meta.replication;
  c.index_ = RoutingIndex::Build(std::move(*g), std::move(p), error);
  if (!c.index_) return std::nullopt;
  for (const auto& rec : records) {
    if (rec.seq <= master_anchor) continue;
    std::string gtsv;
    std::vector<std::string> fpayloads;
    if (!ParseJournalPayload(rec.payload, meta.fragments, &gtsv, &fpayloads,
                             error)) {
      return std::nullopt;
    }
    auto plan = c.index_->PlanBatch(gtsv, &gerr);
    if (!plan) {
      SetError(error, "routing journal replay seq " + std::to_string(rec.seq) +
                          ": " + gerr);
      return std::nullopt;
    }
    c.index_->Commit(std::move(*plan));
  }
  c.stats_.last_seq = global_seq;

  std::optional<PropertyGraph> current;
  for (size_t f = 0; f < meta.fragments; ++f) {
    if (opened[f]) {
      c.fragments_.push_back(std::move(*opened[f]));
      continue;
    }
    if (!current) current = c.index_->view().Materialize();
    auto s = c.RebuildFragment(f, global_seq, *current, error);
    if (!s) return std::nullopt;
    c.fragments_.push_back(std::move(*s));
    ++c.stats_.catchup_snapshots;
    ++c.stats_.lagging_fragments;
    CatchupFragmentsTotal().Inc();
  }

  if (!c.CatchUp(global_seq, master_anchor, error)) return std::nullopt;

  for (const GraphStore& s : c.fragments_) {
    if (s.last_seq() != global_seq) {
      SetError(error, "fragments disagree after catch-up");
      return std::nullopt;
    }
  }
  uint64_t anchor = c.fragments_.front().stats().anchor_seq;
  for (const GraphStore& s : c.fragments_) {
    if (s.stats().anchor_seq != anchor) {
      SetError(error, "fragment anchors disagree after catch-up");
      return std::nullopt;
    }
  }
  c.stats_.anchor_seq = anchor;
  c.count_.Restore(meta.count, global_seq);
  return c;
}

std::optional<GraphStore> Coordinator::RebuildFragment(
    size_t f, uint64_t global_seq, const PropertyGraph& current,
    std::string* error) {
  PropertyGraph sub = ExtractSubgraph(current, index_->residency()[f]);
  std::ostringstream shipped;
  SaveGraphTsv(sub, shipped, /*with_vocab=*/true);
  std::error_code ec;
  fs::remove_all(FragmentDir(dir_, f), ec);
  std::string ferr;
  if (!GraphStore::InitAt(FragmentDir(dir_, f), sub, global_seq, &ferr)) {
    SetError(error, "fragment " + std::to_string(f) + ": rebuild: " + ferr);
    return std::nullopt;
  }
  auto s = GraphStore::Open(FragmentDir(dir_, f), opts_.store, &ferr);
  if (!s) {
    SetError(error, "fragment " + std::to_string(f) +
                        ": reopen after rebuild: " + ferr);
    return std::nullopt;
  }
  cluster_->CountShipment(1, shipped.str().size());
  SnapshotTransfersTotal().Inc();
  obs::EmitTrace("snapshot_transfer",
                 {{"fragment", f},
                  {"seq", global_seq},
                  {"bytes", shipped.str().size()}});
  return s;
}

bool Coordinator::CatchUp(uint64_t global_seq, uint64_t master_anchor,
                          std::string* error) {
  auto records = journal_->records();
  const uint64_t journal_first = records.empty() ? 0 : records.front().seq;
  std::vector<std::optional<std::vector<std::string>>> parsed(records.size());
  for (size_t f = 0; f < fragments_.size(); ++f) {
    bool lagged = false;
    while (fragments_[f].last_seq() < global_seq) {
      uint64_t need = fragments_[f].last_seq() + 1;
      if (records.empty() || need < journal_first ||
          need > records.back().seq) {
        SetError(error, "fragment " + std::to_string(f) +
                            " cannot be caught up from the routing journal");
        return false;
      }
      size_t idx = need - journal_first;
      if (!parsed[idx]) {
        std::string gtsv;
        std::vector<std::string> fpayloads;
        if (!ParseJournalPayload(records[idx].payload, fragments_.size(),
                                 &gtsv, &fpayloads, error)) {
          return false;
        }
        parsed[idx] = std::move(fpayloads);
      }
      const std::string& payload = (*parsed[idx])[f];
      std::string ferr;
      auto seq2 = fragments_[f].Append(payload, &ferr);
      if (!seq2) {
        SetError(error,
                 "fragment " + std::to_string(f) + ": catch-up: " + ferr);
        return false;
      }
      if (*seq2 != need) {
        SetError(error, "fragment " + std::to_string(f) +
                            ": catch-up out of sequence");
        return false;
      }
      cluster_->CountShipment(1, payload.size());
      ++stats_.catchup_records;
      CatchupRecordsTotal().Inc();
      lagged = true;
    }
    if (lagged) {
      ++stats_.lagging_fragments;
      CatchupFragmentsTotal().Inc();
      obs::EmitTrace("catchup", {{"fragment", f},
                                 {"seq", global_seq},
                                 {"records", stats_.catchup_records}});
    }
  }

  uint64_t min_anchor = fragments_.front().stats().anchor_seq;
  bool anchors_differ = false;
  for (const GraphStore& s : fragments_) {
    uint64_t a = s.stats().anchor_seq;
    min_anchor = std::min(min_anchor, a);
    if (a != fragments_.front().stats().anchor_seq) anchors_differ = true;
  }

  // A rebalance that crashed between its meta commit and its lockstep
  // compaction leaves fragment bases (and halos) laid out under the old
  // ownership: rebuild every fragment from the recovered global state
  // under the persisted (new) ownership.
  if (owners_seq_ > min_anchor) {
    PropertyGraph current = index_->view().Materialize();
    for (size_t f = 0; f < fragments_.size(); ++f) {
      auto s = RebuildFragment(f, global_seq, current, error);
      if (!s) return false;
      fragments_[f] = std::move(*s);
      ++stats_.catchup_snapshots;
    }
    owners_seq_ = global_seq;  // ownership takes effect at the new anchor
    anchors_differ = true;
  }

  if (anchors_differ ||
      fragments_.front().stats().anchor_seq != master_anchor) {
    if (!CompactAll(error)) return false;
  }
  return true;
}

CoordinatorStats Coordinator::stats() const {
  CoordinatorStats s = stats_;
  s.anchor_seq = fragments_.front().stats().anchor_seq;
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

  // Journal first: once the routed sub-batches are durable at the
  // master, a crash anywhere below is repaired by re-shipping them.
  {
    std::string jerr;
    auto jseq =
        journal_->Append(JournalPayload(global_tsv, plan.payloads), &jerr);
    if (!jseq) {
      SetError(error, "routing journal: " + jerr);
      return std::nullopt;
    }
    if (*jseq != seq) {
      degraded_ = true;
      SetError(error, "routing journal out of sequence");
      return std::nullopt;
    }
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
    auto append = [&] {
      std::string ferr;
      auto seq2 = fragments_[f].Append(plan.payloads[f], &ferr);
      if (!seq2) {
        errs[f] = "fragment " + std::to_string(f) + ": " + ferr;
        return false;
      }
      if (*seq2 != seq) {
        errs[f] = "fragment " + std::to_string(f) + ": out of sequence";
        return false;
      }
      return true;
    };
    if (!diff_ctx) {
      append();
      return;
    }
    // Both views around the sub-batch hold every match anchored at an
    // owned node (halo radius >= pattern radius), so each side equals the
    // global one at this fragment's seeds and the global footprint gates.
    auto sides = diff_ctx->engine->DetectStep(
        fragments_[f].view(), plan.footprint, seeds[f], append,
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

  // Persist intent FIRST: if anything past this point crashes, Open
  // sees owners_seq beyond the minimum fragment anchor and rebuilds the
  // fragments under the new ownership from the recovered global state.
  const uint64_t prev_owners_seq = owners_seq_;
  owners_seq_ = seq;
  {
    Partition intent = index_->partition();
    intent.node_owner = plan->new_owner;
    std::string werr;
    if (!AtomicWriteFile(
            dir_ + "/" + kMetaFile,
            MetaContent(intent, owners_seq_, count_.Persisted(stats_.last_seq)),
            &werr)) {
      owners_seq_ = prev_owners_seq;
      SetError(error, "meta: " + werr);
      rebalance_timer.Discard();
      return std::nullopt;
    }
  }

  auto s = ShipSequenced(std::move(*plan), "", nullptr, error);
  if (!s) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  ++stats_.rebalances;
  RebalancesTotal().Inc();
  if (carried) count_.Set(carried->count, seq, carried->fingerprint);

  // Compact right away, for recovery: CatchUp reads owners_seq_ past the
  // minimum fragment anchor as a torn rebalance. (Diffs need no compaction:
  // the maintenance already moved every live view to the new residency.)
  if (!CompactAll(error)) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  return seq;
}

bool Coordinator::ShouldCompact() const {
  for (const GraphStore& s : fragments_) {
    if (s.ShouldCompact()) return true;
  }
  return false;
}

bool Coordinator::CompactAll(std::string* error) {
  if (!CheckNotDegraded(error)) return false;
  const uint64_t seq = stats_.last_seq;

  // Global snapshot first (the gross-damage recovery source), fragment
  // rolls second, journal re-anchor last: a crash between any two steps
  // leaves a state Open() can still bridge.
  {
    PropertyGraph current = index_->view().Materialize();
    std::ostringstream snap;
    SaveGraphTsv(current, snap, /*with_vocab=*/true);
    std::string werr;
    if (!AtomicWriteFile(dir_ + "/" + GlobalSnapshotName(seq), snap.str(),
                         &werr)) {
      SetError(error, "global snapshot: " + werr);
      return false;
    }
  }
  std::vector<std::string> errs(fragments_.size());
  cluster_->RunStep([&](size_t f) {
    std::string ferr;
    if (!fragments_[f].Compact(&ferr)) {
      errs[f] = "fragment " + std::to_string(f) + ": " + ferr;
    }
  });
  for (const std::string& e : errs) {
    if (!e.empty()) {
      degraded_ = true;
      SetError(error, e + "; coordinator degraded, reopen to recover");
      return false;
    }
  }
  index_->Compact();
  std::string jerr;
  if (!journal_->DropThrough(seq, &jerr)) {
    SetError(error, "routing journal: " + jerr);
    return false;
  }
  std::error_code ec;
  for (uint64_t old : ListGlobalSnapshots(dir_)) {
    if (old != seq) fs::remove(dir_ + "/" + GlobalSnapshotName(old), ec);
  }
  stats_.anchor_seq = seq;
  ++stats_.compactions;
  return WriteMeta(error);
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
  for (const GraphStore& f : fragments_) {
    snap.replayed_batches += f.stats().replayed_batches;
    snap.skipped_batches += f.stats().skipped_batches;
    snap.overlay_ops += f.overlay().ops.size();
    snap.truncated_bytes += f.stats().truncated_bytes;
    snap.compactions += f.stats().compactions;
  }
  snap.batches = s.batches;
  snap.lagging_fragments = s.lagging_fragments;
  snap.catchup_records = s.catchup_records;
  snap.catchup_snapshots = s.catchup_snapshots;
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
  std::string werr;
  if (!AtomicWriteFile(dir_ + "/" + kMetaFile,
                       MetaContent(index_->partition(), owners_seq_,
                                   count_.Persisted(stats_.last_seq)),
                       &werr)) {
    SetError(error, "meta: " + werr);
    return false;
  }
  return true;
}

}  // namespace gfd
