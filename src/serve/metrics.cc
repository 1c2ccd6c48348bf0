#include "serve/metrics.h"

#include <string>

#include "serve/serving_store.h"

namespace gfd {

namespace {
obs::MetricsRegistry& Reg() { return obs::MetricsRegistry::Default(); }
}  // namespace

obs::Counter& LogAppendsTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_log_appends_total", "Delta-log records appended durably.");
  return c;
}

obs::Counter& LogAppendBytesTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_log_append_bytes_total", "Framed bytes appended to delta logs.");
  return c;
}

obs::Counter& LogAppendFailuresTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_log_append_failures_total",
      "Delta-log appends that failed (torn frame cut back).");
  return c;
}

obs::Counter& LogTornTailTruncationsTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_log_torn_tail_truncations_total",
      "Torn or corrupt delta-log tails cut on open.");
  return c;
}

obs::Counter& LogTruncatedBytesTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_log_truncated_bytes_total",
      "Bytes dropped by torn-tail truncations on open.");
  return c;
}

obs::Histogram& LogAppendLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_log_append_seconds", "Delta-log append latency (fsync included).",
      obs::DefaultLatencyBuckets());
  return h;
}

obs::Counter& FsyncsTotal() {
  static obs::Counter& c =
      Reg().GetCounter("gfd_fsyncs_total", "fsync calls issued by durable_io.");
  return c;
}

obs::Histogram& StoreAppendLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_store_append_seconds",
      "Store append latency (a coordinator's: its journal append).",
      obs::DefaultLatencyBuckets());
  return h;
}

obs::Histogram& StoreReplayLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_store_replay_seconds", "Graph-store log replay latency on open.",
      obs::DefaultLatencyBuckets());
  return h;
}

obs::Histogram& StoreCompactLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_store_compact_seconds", "Graph-store snapshot compaction latency.",
      obs::DefaultLatencyBuckets());
  return h;
}

obs::Counter& StoreAppendsTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_store_appends_total", "Batches appended to graph stores.");
  return c;
}

obs::Counter& StoreCompactionsTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_store_compactions_total",
      "Snapshot compactions (one per coordinator round).");
  return c;
}

obs::Counter& StoreReplayedBatchesTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_store_replayed_batches_total",
      "Batches replayed from delta logs on open.");
  return c;
}

obs::Gauge& StoreOverlayOps() {
  static obs::Gauge& g = Reg().GetGauge(
      "gfd_store_overlay_ops",
      "Current overlay ops pending compaction.");
  return g;
}

obs::Gauge& ViolationsRunning() {
  static obs::Gauge& g = Reg().GetGauge(
      "gfd_violations_running",
      "Running violation count maintained by the serving loop.");
  return g;
}

obs::Histogram& FeedPublishLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_feed_publish_seconds",
      "Changefeed publish latency (durable append + fan-out).",
      obs::DefaultLatencyBuckets());
  return h;
}

obs::Counter& FragmentBytesShipped(size_t f, std::string_view kind) {
  return Reg().GetCounter(
      "gfd_fragment_bytes_shipped",
      "Bytes shipped per fragment, split into routed batch ops (owned) "
      "vs. border-halo maintenance (halo).",
      {{"fragment", std::to_string(f)}, {"kind", std::string(kind)}});
}

obs::Counter& FragmentOpsShipped(size_t f, std::string_view kind) {
  return Reg().GetCounter(
      "gfd_fragment_ops_total",
      "Delta ops shipped per fragment, routed vs. halo maintenance.",
      {{"fragment", std::to_string(f)}, {"kind", std::string(kind)}});
}

obs::Counter& RebalancesTotal() {
  static obs::Counter& c = Reg().GetCounter(
      "gfd_rebalances_total", "Ownership migrations between fragments.");
  return c;
}

obs::Histogram& RebalanceLatency() {
  static obs::Histogram& h = Reg().GetHistogram(
      "gfd_rebalance_seconds",
      "End-to-end rebalance latency (owner table, journal, ship).",
      obs::DefaultLatencyBuckets());
  return h;
}

void TouchServeMetrics() {
  LogAppendsTotal();
  LogAppendBytesTotal();
  LogAppendFailuresTotal();
  LogTornTailTruncationsTotal();
  LogTruncatedBytesTotal();
  LogAppendLatency();
  FsyncsTotal();
  StoreAppendLatency();
  StoreReplayLatency();
  StoreCompactLatency();
  StoreAppendsTotal();
  StoreCompactionsTotal();
  StoreReplayedBatchesTotal();
  StoreOverlayOps();
  ViolationsRunning();
  FeedPublishLatency();
  RebalancesTotal();
  RebalanceLatency();
}

void ExportSnapshotMetrics(const ServingMetricsSnapshot& snap) {
  Reg()
      .GetGauge("gfd_serving_last_seq",
                "Last applied global batch sequence number.")
      .Set(static_cast<double>(snap.last_seq));
  Reg()
      .GetGauge("gfd_serving_anchor_seq",
                "Snapshot anchor sequence (batches folded into the base).")
      .Set(static_cast<double>(snap.anchor_seq));
  Reg()
      .GetGauge("gfd_serving_fragments",
                "Fragment count behind the serving interface (1 = single "
                "store).")
      .Set(static_cast<double>(snap.fragments));
  StoreOverlayOps().Set(static_cast<double>(snap.overlay_ops));
}

}  // namespace gfd
