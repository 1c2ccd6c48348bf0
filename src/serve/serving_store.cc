#include "serve/serving_store.h"

#include "serve/metrics.h"

namespace gfd {

bool ServingStore::Restep(const ViolationEngine&, uint64_t,
                          const RestepVisitor&, const IncrementalOptions&,
                          std::string* error) const {
  if (error) *error = "this store keeps no log to re-derive batches from";
  return false;
}

std::optional<ServedBatch> ServeStep(ServingStore& store,
                                     const ViolationEngine& engine,
                                     std::string_view delta_tsv,
                                     uint64_t pre_count,
                                     const IncrementalOptions& opts,
                                     std::string* error) {
  ServedBatch out;
  auto diff = store.AppendAndDiff(engine, delta_tsv, opts, &out.seq, error);
  if (!diff) return std::nullopt;
  out.diff = std::move(*diff);
  out.count = pre_count + out.diff.added.size() - out.diff.removed.size();
  ViolationsRunning().Set(static_cast<double>(out.count));
  out.verdict = ClassifyDelta(out.diff, out.count);
  return out;
}

}  // namespace gfd
