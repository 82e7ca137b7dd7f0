#ifndef CYCLEQR_SERVING_BACKENDS_H_
#define CYCLEQR_SERVING_BACKENDS_H_

#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/status.h"
#include "rewrite/direct_model.h"
#include "rewrite/inference.h"
#include "serving/kv_store.h"

namespace cyqr {

/// Narrow seam in front of the KV rewrite cache. The serving path talks to
/// this interface (not RewriteKvStore directly) so tests and benches can
/// substitute fault-injecting or remote implementations.
class KvBackend {
 public:
  virtual ~KvBackend() = default;

  /// OK + fills `out` on a hit; NotFound on a clean miss; any other code is
  /// a backend failure (outage, timeout) and is reported as degradation.
  [[nodiscard]] virtual Status Lookup(
      const std::string& key, Deadline& deadline,
      RewriteKvStore::Rewrites* out) = 0;
};

/// Narrow seam in front of the direct query-to-query fallback model.
class ModelBackend {
 public:
  virtual ~ModelBackend() = default;

  /// OK + fills `out` (possibly empty when the model has nothing to say).
  /// NotFound is also a clean miss, exactly like an empty answer; any
  /// other code is a model failure (counted by the circuit breaker).
  [[nodiscard]] virtual Status Rewrite(
      const std::vector<std::string>& query_tokens, int64_t k,
      int64_t max_len, Deadline& deadline,
      std::vector<RewriteCandidate>* out) = 0;
};

/// Production adapter: in-process RewriteKvStore lookups.
class KvStoreBackend : public KvBackend {
 public:
  /// `store` must outlive the backend.
  explicit KvStoreBackend(const RewriteKvStore* store) : store_(store) {}

  [[nodiscard]] Status Lookup(const std::string& key, Deadline& deadline,
                              RewriteKvStore::Rewrites* out) override;

 private:
  const RewriteKvStore* store_;
};

/// Production adapter: in-process DirectRewriter decode.
class DirectModelBackend : public ModelBackend {
 public:
  /// `model` must outlive the backend.
  explicit DirectModelBackend(const DirectRewriter* model) : model_(model) {}

  [[nodiscard]] Status Rewrite(
      const std::vector<std::string>& query_tokens, int64_t k,
      int64_t max_len, Deadline& deadline,
      std::vector<RewriteCandidate>* out) override;

 private:
  const DirectRewriter* model_;
};

}  // namespace cyqr

#endif  // CYCLEQR_SERVING_BACKENDS_H_
