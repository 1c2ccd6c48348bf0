#include "serve/serving_store.h"

namespace gfd {

std::optional<ServedBatch> ServeStep(ServingStore& store,
                                     const ViolationEngine& engine,
                                     std::string_view delta_tsv,
                                     uint64_t pre_count, uint64_t fingerprint,
                                     const IncrementalOptions& opts,
                                     std::string* error) {
  ServedBatch out;
  auto diff = store.AppendAndDiff(engine, delta_tsv, opts, &out.seq, error);
  if (!diff) return std::nullopt;
  out.diff = std::move(*diff);
  // A full-path diff is authoritative: RE-SEED the count from it rather
  // than composing, so a drifted count can never persist through the
  // store's meta.
  out.count = out.diff.used_full_path
                  ? out.diff.full_post_count
                  : pre_count + out.diff.added.size() - out.diff.removed.size();
  store.SetViolationCount(out.count, fingerprint, &out.persist_error);
  out.verdict = ClassifyDelta(out.diff, out.count);
  return out;
}

}  // namespace gfd
