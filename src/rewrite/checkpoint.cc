#include "rewrite/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "core/checksum.h"
#include "core/file_util.h"
#include "nn/serialize.h"

namespace cyqr {

namespace {

constexpr uint32_t kCheckpointMagic = 0x43595143;  // "CYQC"
constexpr uint32_t kFooterMagic = 0x43464b43;      // "CKFC"
constexpr uint32_t kVersion = 2;
// Bounds for counts parsed out of a (checksummed, but possibly
// maliciously crafted) file, so a bad length can't drive an allocation.
constexpr uint64_t kMaxBlobBytes = 1ull << 32;
constexpr uint64_t kMaxCurvePoints = 1ull << 24;
constexpr uint64_t kMaxGradNorms = 1ull << 28;

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendRngState(std::string* out, const RngState& state) {
  for (uint64_t word : state.s) AppendPod(out, word);
  const uint8_t cached = state.has_cached_gaussian ? 1 : 0;
  AppendPod(out, cached);
  AppendPod(out, state.cached_gaussian);
}

void AppendBlob(std::string* out, const std::string& blob) {
  const uint64_t n = blob.size();
  AppendPod(out, n);
  out->append(blob);
}

/// Bounds-checked reader over the validated payload bytes.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  Status Read(T* value, const char* what) {
    if (offset_ + sizeof(T) > size_) {
      return Status::IoError(std::string("truncated checkpoint payload: ") +
                             what);
    }
    std::memcpy(value, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return Status::OK();
  }

  Status ReadRngState(RngState* state, const char* what) {
    for (uint64_t& word : state->s) CYQR_RETURN_IF_ERROR(Read(&word, what));
    uint8_t cached = 0;
    CYQR_RETURN_IF_ERROR(Read(&cached, what));
    state->has_cached_gaussian = cached != 0;
    CYQR_RETURN_IF_ERROR(Read(&state->cached_gaussian, what));
    return Status::OK();
  }

  Status ReadBlob(std::string* blob, const char* what) {
    uint64_t n = 0;
    CYQR_RETURN_IF_ERROR(Read(&n, what));
    if (n > kMaxBlobBytes || offset_ + n > size_) {
      return Status::IoError(std::string("truncated checkpoint payload: ") +
                             what);
    }
    blob->assign(data_ + offset_, n);
    offset_ += n;
    return Status::OK();
  }

  bool AtEnd() const { return offset_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace

Status SaveTrainerCheckpoint(const std::vector<Tensor>& params,
                             const TrainerCheckpoint& state,
                             const std::string& path) {
  std::string payload;
  AppendPod(&payload, kCheckpointMagic);
  AppendPod(&payload, kVersion);
  AppendPod(&payload, state.step);
  AppendRngState(&payload, state.trainer_rng);
  AppendPod(&payload, state.consecutive_anomalies);
  AppendPod(&payload, state.skipped_batches);

  // Parameters and optimizer state are embedded as length-prefixed blobs
  // in their own self-validating nn/serialize formats.
  std::ostringstream param_stream;
  CYQR_RETURN_IF_ERROR(SaveParameters(params, param_stream));
  AppendBlob(&payload, param_stream.str());
  std::ostringstream adam_stream;
  CYQR_RETURN_IF_ERROR(SaveAdamState(state.optimizer, adam_stream));
  AppendBlob(&payload, adam_stream.str());

  const uint64_t curve_count = state.curve.size();
  AppendPod(&payload, curve_count);
  for (const TrainMetricsPoint& p : state.curve) {
    AppendPod(&payload, p.step);
    AppendPod(&payload, p.q2t_perplexity);
    AppendPod(&payload, p.t2q_perplexity);
    AppendPod(&payload, p.q2t_accuracy);
    AppendPod(&payload, p.t2q_accuracy);
    AppendPod(&payload, p.translate_back_log_prob);
    AppendPod(&payload, p.translate_back_accuracy);
  }
  const uint64_t norm_count = state.grad_norms.size();
  AppendPod(&payload, norm_count);
  for (double norm : state.grad_norms) AppendPod(&payload, norm);

  std::string file = payload;
  AppendPod(&file, kFooterMagic);
  const uint64_t payload_bytes = payload.size();
  AppendPod(&file, payload_bytes);
  const uint64_t checksum = Fnv1a64(payload);
  AppendPod(&file, checksum);
  return WriteStringToFileAtomic(path, file);
}

Status LoadTrainerCheckpoint(std::vector<Tensor> params,
                             TrainerCheckpoint* state,
                             const std::string& path) {
  Result<std::string> file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  const std::string& content = file.value();
  constexpr size_t kFooterBytes =
      sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint64_t);
  if (content.size() < kFooterBytes) {
    return Status::IoError("truncated checkpoint (no footer): " + path);
  }
  const char* footer = content.data() + content.size() - kFooterBytes;
  uint32_t footer_magic = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
  std::memcpy(&footer_magic, footer, sizeof(footer_magic));
  std::memcpy(&payload_bytes, footer + sizeof(footer_magic),
              sizeof(payload_bytes));
  std::memcpy(&checksum,
              footer + sizeof(footer_magic) + sizeof(payload_bytes),
              sizeof(checksum));
  if (footer_magic != kFooterMagic) {
    return Status::IoError("missing checkpoint footer: " + path);
  }
  if (payload_bytes != content.size() - kFooterBytes) {
    return Status::IoError("checkpoint payload length mismatch: " + path);
  }
  const std::string payload = content.substr(0, payload_bytes);
  if (Fnv1a64(payload) != checksum) {
    return Status::IoError("checkpoint checksum mismatch (corrupt file): " +
                           path);
  }

  PayloadReader reader(payload.data(), payload.size());
  uint32_t magic = 0;
  CYQR_RETURN_IF_ERROR(reader.Read(&magic, "magic"));
  if (magic != kCheckpointMagic) {
    return Status::IoError("bad checkpoint magic: " + path);
  }
  uint32_t version = 0;
  CYQR_RETURN_IF_ERROR(reader.Read(&version, "version"));
  if (version != kVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) + ": " +
        path);
  }
  // Everything is staged locally; the destination tensors are written
  // last, only after every section has parsed and validated.
  TrainerCheckpoint staged;
  CYQR_RETURN_IF_ERROR(reader.Read(&staged.step, "step"));
  CYQR_RETURN_IF_ERROR(reader.ReadRngState(&staged.trainer_rng,
                                           "trainer rng"));
  CYQR_RETURN_IF_ERROR(reader.Read(&staged.consecutive_anomalies,
                                   "anomaly counter"));
  CYQR_RETURN_IF_ERROR(reader.Read(&staged.skipped_batches,
                                   "skip counter"));
  std::string param_blob;
  CYQR_RETURN_IF_ERROR(reader.ReadBlob(&param_blob, "parameter blob"));
  std::string adam_blob;
  CYQR_RETURN_IF_ERROR(reader.ReadBlob(&adam_blob, "optimizer blob"));
  {
    std::istringstream adam_stream(adam_blob);
    CYQR_RETURN_IF_ERROR(LoadAdamState(adam_stream, &staged.optimizer));
  }
  uint64_t curve_count = 0;
  CYQR_RETURN_IF_ERROR(reader.Read(&curve_count, "curve count"));
  if (curve_count > kMaxCurvePoints) {
    return Status::IoError("curve count out of range: " + path);
  }
  staged.curve.resize(curve_count);
  for (TrainMetricsPoint& p : staged.curve) {
    CYQR_RETURN_IF_ERROR(reader.Read(&p.step, "curve point"));
    CYQR_RETURN_IF_ERROR(reader.Read(&p.q2t_perplexity, "curve point"));
    CYQR_RETURN_IF_ERROR(reader.Read(&p.t2q_perplexity, "curve point"));
    CYQR_RETURN_IF_ERROR(reader.Read(&p.q2t_accuracy, "curve point"));
    CYQR_RETURN_IF_ERROR(reader.Read(&p.t2q_accuracy, "curve point"));
    CYQR_RETURN_IF_ERROR(reader.Read(&p.translate_back_log_prob,
                                     "curve point"));
    CYQR_RETURN_IF_ERROR(reader.Read(&p.translate_back_accuracy,
                                     "curve point"));
  }
  uint64_t norm_count = 0;
  CYQR_RETURN_IF_ERROR(reader.Read(&norm_count, "grad norm count"));
  if (norm_count > kMaxGradNorms) {
    return Status::IoError("grad norm count out of range: " + path);
  }
  staged.grad_norms.resize(norm_count);
  for (double& norm : staged.grad_norms) {
    CYQR_RETURN_IF_ERROR(reader.Read(&norm, "grad norm"));
  }
  if (!reader.AtEnd()) {
    return Status::IoError("trailing bytes in checkpoint payload: " + path);
  }
  // Commit: parameters last (LoadParameters is itself all-or-nothing).
  std::istringstream param_stream(param_blob);
  CYQR_RETURN_IF_ERROR(LoadParameters(std::move(params), param_stream));
  *state = std::move(staged);
  return Status::OK();
}

std::string CheckpointFileName(int64_t step) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%012" PRId64 ".cyqc", step);
  return buf;
}

Result<std::vector<std::string>> ListCheckpointFiles(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return files;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    if (name.rfind("ckpt-", 0) == 0 && p.extension() == ".cyqc") {
      files.push_back(p.string());
    }
  }
  if (ec) return Status::IoError("cannot list checkpoints in " + dir);
  // Zero-padded step numbers make lexicographic order chronological.
  std::sort(files.begin(), files.end());
  return files;
}

Result<std::string> LatestCheckpointFile(const std::string& dir) {
  Result<std::vector<std::string>> files = ListCheckpointFiles(dir);
  if (!files.ok()) return files.status();
  if (files.value().empty()) {
    return Status::NotFound("no checkpoints in " + dir);
  }
  return files.value().back();
}

Status PruneCheckpoints(const std::string& dir, int64_t keep) {
  if (keep < 1) {
    return Status::InvalidArgument("checkpoint rotation must keep >= 1");
  }
  Result<std::vector<std::string>> files = ListCheckpointFiles(dir);
  if (!files.ok()) return files.status();
  const std::vector<std::string>& sorted = files.value();
  if (static_cast<int64_t>(sorted.size()) <= keep) return Status::OK();
  const size_t drop = sorted.size() - static_cast<size_t>(keep);
  for (size_t i = 0; i < drop; ++i) {
    std::error_code ec;
    std::filesystem::remove(sorted[i], ec);
    if (ec) return Status::IoError("cannot remove " + sorted[i]);
  }
  return Status::OK();
}

}  // namespace cyqr
