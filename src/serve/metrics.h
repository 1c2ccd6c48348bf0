// Cached registry handles for the serving layer's metrics (delta log,
// graph store, coordinator), plus the snapshot-gauge exporter gfdtool
// uses. All families live in obs::MetricsRegistry::Default(); the
// accessors register once and hand back stable references so the hot
// path is relaxed-atomic only.
#ifndef GFD_SERVE_METRICS_H_
#define GFD_SERVE_METRICS_H_

#include <cstddef>
#include <string_view>

#include "obs/metrics.h"

namespace gfd {

struct ServingMetricsSnapshot;

// ---- delta log ----
obs::Counter& LogAppendsTotal();         ///< gfd_log_appends_total
obs::Counter& LogAppendBytesTotal();     ///< gfd_log_append_bytes_total
obs::Counter& LogAppendFailuresTotal();  ///< gfd_log_append_failures_total
/// Torn/corrupt log tails cut on open (gfd_log_torn_tail_truncations_total)
/// and the bytes they dropped (gfd_log_truncated_bytes_total).
obs::Counter& LogTornTailTruncationsTotal();
obs::Counter& LogTruncatedBytesTotal();
obs::Histogram& LogAppendLatency();  ///< gfd_log_append_seconds
obs::Counter& FsyncsTotal();         ///< gfd_fsyncs_total (durable_io)

// ---- graph store ----
obs::Histogram& StoreAppendLatency();   ///< gfd_store_append_seconds
obs::Histogram& StoreReplayLatency();   ///< gfd_store_replay_seconds
obs::Histogram& StoreCompactLatency();  ///< gfd_store_compact_seconds
obs::Counter& StoreAppendsTotal();      ///< gfd_store_appends_total
/// Snapshot compactions: one per GraphStore roll or coordinator round
/// (gfd_store_compactions_total).
obs::Counter& StoreCompactionsTotal();
/// Batches replayed from logs on open (gfd_store_replayed_batches_total).
obs::Counter& StoreReplayedBatchesTotal();
obs::Gauge& StoreOverlayOps();    ///< gfd_store_overlay_ops
obs::Gauge& ViolationsRunning();  ///< gfd_violations_running

// ---- changefeed ----
/// One feed publish: durable append plus fan-out
/// (gfd_feed_publish_seconds).
obs::Histogram& FeedPublishLatency();

// ---- coordinator ----
/// Bytes shipped to fragment `f`, split by purpose
/// (gfd_fragment_bytes_shipped{fragment="<f>",kind="owned"|"halo"}).
obs::Counter& FragmentBytesShipped(size_t f, std::string_view kind);
/// Ops shipped to fragment `f`, split into routed batch ops vs. halo
/// maintenance (gfd_fragment_ops_total{fragment="<f>",kind="routed"|
/// "maintenance"}).
obs::Counter& FragmentOpsShipped(size_t f, std::string_view kind);
obs::Counter& RebalancesTotal();     ///< gfd_rebalances_total
obs::Histogram& RebalanceLatency();  ///< gfd_rebalance_seconds

/// Pre-registers every unlabeled serve family so a render shows the
/// full catalog even on an idle store.
void TouchServeMetrics();

/// Mirrors one ServingMetricsSnapshot into gauges
/// (gfd_serving_last_seq, gfd_serving_anchor_seq, gfd_serving_fragments,
/// gfd_store_overlay_ops).
void ExportSnapshotMetrics(const ServingMetricsSnapshot& snap);

}  // namespace gfd

#endif  // GFD_SERVE_METRICS_H_
