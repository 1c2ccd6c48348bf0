#include "serve/coordinator.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "serve/durable_io.h"
#include "serve/metrics.h"

namespace gfd {

namespace {
namespace fs = std::filesystem;

constexpr char kPartitionFile[] = "coordinator.meta";
constexpr char kMetaMagic[] = "gfd-coordinator v2";
// The journal of the layout older builds wrote (beside global snapshots,
// perhaps fragment stores). This build reads no file of that layout.
constexpr char kOlderLayoutJournal[] = "routing.log";

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

bool ParseMeta(const std::string& path, Partition* out, std::string* error) {
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
  Partition& p = *out;
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
    } else if (key == "owners") {
      uint32_t o;
      while (ls >> o) p.node_owner.push_back(o);
      have_owners = true;
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
  for (const char* held : {GraphStore::kMetaFile, kOlderLayoutJournal}) {
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
  if (fs::exists(dir + "/" + kOlderLayoutJournal)) {
    SetError(error, dir + " holds " + kOlderLayoutJournal +
                        ": a coordinator in an older layout, which this "
                        "build does not read; export its graph with the "
                        "build that wrote it (log replay -o) and serve init "
                        "the export");
    return std::nullopt;
  }
  Partition partition;
  if (!ParseMeta(dir + "/" + kPartitionFile, &partition, error)) {
    return std::nullopt;
  }
  auto store = GraphStore::Open(dir, opts.store, error);
  if (!store) return std::nullopt;
  if (partition.node_owner.size() != store->view().NumNodes()) {
    SetError(error, "partition owner table does not match the graph");
    return std::nullopt;
  }
  return Coordinator(std::move(*store), std::move(partition));
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

bool Coordinator::Rebalance(NodeId node, uint32_t to_fragment,
                            std::string* error) {
  if (node >= partition_.node_owner.size()) {
    SetError(error, "rebalance: node id out of range");
    return false;
  }
  if (to_fragment >= partition_.num_fragments) {
    SetError(error, "rebalance: fragment id out of range");
    return false;
  }
  if (partition_.node_owner[node] == to_fragment) {
    SetError(error, "rebalance: node already owned by fragment " +
                        std::to_string(to_fragment));
    return false;
  }
  obs::ScopedTimer rebalance_timer(&RebalanceLatency(), "rebalance",
                                   {{"node", node}, {"to", to_fragment}});
  // The table is the move's one durable write; the graph, the logs and
  // the running count are untouched.
  Partition moved = partition_;
  moved.node_owner[node] = to_fragment;
  if (!WritePartition(dir(), moved, error)) {
    rebalance_timer.Discard();
    return false;
  }
  partition_ = std::move(moved);
  RebalancesTotal().Inc();
  return true;
}

}  // namespace gfd
