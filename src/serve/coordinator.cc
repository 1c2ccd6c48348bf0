#include "serve/coordinator.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "graph/live_graph.h"
#include "graph/loader.h"
#include "obs/trace.h"
#include "serve/delta_log.h"
#include "serve/durable_io.h"
#include "serve/metrics.h"

namespace gfd {

namespace {
namespace fs = std::filesystem;

constexpr char kPartitionFile[] = "coordinator.meta";
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

bool WritePartition(const std::string& dir, const Partition& p,
                    std::string* error) {
  std::string werr;
  if (!AtomicWriteFile(dir + "/" + kPartitionFile, MetaContent(p), &werr)) {
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

// Converts a directory an older build wrote into the store's layout: the
// recovered graph becomes the store's snapshot at its seq (store.meta
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
  if (!WritePartition(dir, meta.partition, error)) return false;
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
  // A committed store (single or a coordinator's), or the journal of an
  // older coordinator layout. A meta alone is an interrupted Init.
  for (const char* held : {GraphStore::kMetaFile, kLegacyJournalFile}) {
    if (fs::exists(dir + "/" + held)) {
      SetError(error, dir + " already holds a store or a coordinator");
      return false;
    }
  }
  Fragmentation frag = VertexCutPartition(g, fragments);
  Partition p = std::move(frag.partition);
  p.halo_radius = halo_radius;
  // The owner table first, the store second: its store.meta commits the
  // directory.
  return WritePartition(dir, p, error) && GraphStore::Init(dir, g, error);
}

std::optional<Coordinator> Coordinator::Open(const std::string& dir,
                                             const CoordinatorOptions& opts,
                                             std::string* error) {
  MetaData meta;
  if (!ParseMeta(dir + "/" + kPartitionFile, &meta, error)) {
    return std::nullopt;
  }
  if (fs::exists(dir + "/" + kLegacyJournalFile) &&
      !ConvertLegacyLayout(dir, meta, error)) {
    return std::nullopt;
  }
  auto store = GraphStore::Open(dir, opts.store, error);
  if (!store) return std::nullopt;
  if (meta.partition.node_owner.size() != store->view().NumNodes()) {
    SetError(error, "partition owner table does not match the graph");
    return std::nullopt;
  }
  return Coordinator(std::move(*store), std::move(meta.partition));
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
  return GraphStore::AppendAndDiff(engine, delta_tsv, opts, seq_out, error);
}

ServingMetricsSnapshot Coordinator::MetricsSnapshot() const {
  ServingMetricsSnapshot snap = GraphStore::MetricsSnapshot();
  snap.fragments = partition_.num_fragments;
  return snap;
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
  const std::optional<MetaCount> carried = count();
  // The owner table first, its batch second: Open reads the table from
  // the meta, so a recovered rebalance seq always comes with the new
  // table.
  Partition moved = partition_;
  moved.node_owner[node] = to_fragment;
  if (!WritePartition(dir(), moved, error)) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  partition_ = std::move(moved);
  // An empty batch: the store numbers the rebalance like any batch, and
  // replay absorbs nothing for it.
  auto seq = Append("", error);
  if (!seq) {
    rebalance_timer.Discard();
    return std::nullopt;
  }
  rebalance_timer.AddField("seq", *seq);
  RebalancesTotal().Inc();
  if (carried &&
      !SetViolationCount(carried->count, carried->fingerprint, error)) {
    return std::nullopt;
  }
  return seq;
}

}  // namespace gfd
