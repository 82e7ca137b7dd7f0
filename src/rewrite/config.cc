#include "rewrite/config.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

namespace cyqr {

const char* ArchTypeName(ArchType arch) {
  switch (arch) {
    case ArchType::kTransformer:
      return "transformer";
    case ArchType::kAttentionRnn:
      return "attention-rnn";
  }
  return "unknown";
}

CycleConfig PaperScaledConfig(int64_t vocab_size) {
  CycleConfig config;
  config.forward.vocab_size = vocab_size;
  config.forward.d_model = 32;
  config.forward.num_heads = 2;
  config.forward.ff_hidden = 64;
  config.forward.num_layers = 4;  // Paper: 4-layer query-to-title.
  config.forward.dropout = 0.1f;
  config.backward = config.forward;
  config.backward.num_layers = 1;  // Paper: 1-layer title-to-query.
  return config;
}

std::string ConfigTable(const CycleConfig& config) {
  std::ostringstream out;
  out << "Model hyperparameters (paper Table II, CPU-scaled)\n";
  out << "                              Query-to-title  Title-to-query\n";
  out << "  architecture                " << ArchTypeName(config.arch)
      << "\n";
  out << "  # transformer layers        " << config.forward.num_layers
      << "               " << config.backward.num_layers << "\n";
  out << "  # attention heads           " << config.forward.num_heads
      << "               " << config.backward.num_heads << "\n";
  out << "  feed-forward hidden units   " << config.forward.ff_hidden
      << "              " << config.backward.ff_hidden << "\n";
  out << "  embedding dimensionality    " << config.forward.d_model
      << "              " << config.backward.d_model << "\n";
  out << "  dropout rate                " << config.forward.dropout
      << "             " << config.backward.dropout << "\n";
  out << "  vocabulary size             " << config.forward.vocab_size
      << "\n";
  out << "  lambda (cycle weight)       " << config.lambda << "\n";
  out << "  beam width k                " << config.beam_width << "\n";
  out << "  top-n sampling pool         " << config.top_n << "\n";
  return out.str();
}

namespace {

void WriteSeq2SeqConfig(std::ostream& out, const char* prefix,
                        const Seq2SeqConfig& config) {
  out << prefix << ".vocab_size=" << config.vocab_size << '\n';
  out << prefix << ".d_model=" << config.d_model << '\n';
  out << prefix << ".num_heads=" << config.num_heads << '\n';
  out << prefix << ".ff_hidden=" << config.ff_hidden << '\n';
  out << prefix << ".num_layers=" << config.num_layers << '\n';
  out << prefix << ".dropout=" << config.dropout << '\n';
}

using KeyValues = std::map<std::string, std::string>;

// The largest value each size key may take: far above any model or decode
// this repository runs, and low enough that a corrupt file cannot ask for
// an absurd one.
constexpr int64_t kMaxVocabSize = int64_t{1} << 22;
constexpr int64_t kMaxModelWidth = int64_t{1} << 14;  // d_model, ff_hidden.
constexpr int64_t kMaxLayers = 64;
constexpr int64_t kMaxDecodeSize = int64_t{1} << 12;  // k, n and lengths.

/// Reads `key` into `*value` when the file has it. The whole text must be
/// one number of the value's type: an integer for a size, a finite float
/// for a rate. Anything else is InvalidArgument naming the key.
template <typename T>
Status ReadNumber(const KeyValues& kv, const std::string& key, T* value) {
  const auto it = kv.find(key);
  if (it == kv.end()) return Status::OK();
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  // A float is parsed as a double: inf, nan and overflow fail the bound.
  std::conditional_t<std::is_integral_v<T>, T, double> parsed{};
  const auto [stop, error] = std::from_chars(text.data(), end, parsed);
  if (error != std::errc() || stop != end ||
      !(std::fabs(static_cast<double>(parsed)) <=
        static_cast<double>(std::numeric_limits<T>::max()))) {
    return Status::InvalidArgument("config " + key + "='" + text +
                                   "' is not a finite number of its type");
  }
  *value = static_cast<T>(parsed);
  return Status::OK();
}

/// Reads the size `key` and checks that it lies in [1, cap].
Status ReadSize(const KeyValues& kv, const std::string& key, int64_t cap,
                int64_t* value) {
  CYQR_RETURN_IF_ERROR(ReadNumber(kv, key, value));
  if (*value < 1 || *value > cap) {
    return Status::InvalidArgument("config " + key + "=" +
                                   std::to_string(*value) + " is outside [1, " +
                                   std::to_string(cap) + "]");
  }
  return Status::OK();
}

Status ReadSeq2SeqConfig(const KeyValues& kv, const std::string& prefix,
                         Seq2SeqConfig* config) {
  const std::string p = prefix + ".";
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, p + "vocab_size", kMaxVocabSize, &config->vocab_size));
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, p + "d_model", kMaxModelWidth, &config->d_model));
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, p + "num_heads", kMaxModelWidth, &config->num_heads));
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, p + "ff_hidden", kMaxModelWidth, &config->ff_hidden));
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, p + "num_layers", kMaxLayers, &config->num_layers));
  if (config->d_model % config->num_heads != 0) {
    return Status::InvalidArgument(
        "config " + p + "num_heads=" + std::to_string(config->num_heads) +
        " does not divide " + p + "d_model=" +
        std::to_string(config->d_model));
  }
  CYQR_RETURN_IF_ERROR(ReadNumber(kv, p + "dropout", &config->dropout));
  if (!(config->dropout >= 0.0f && config->dropout < 1.0f)) {
    return Status::InvalidArgument("config " + p + "dropout=" +
                                   std::to_string(config->dropout) +
                                   " is outside [0, 1)");
  }
  return Status::OK();
}

}  // namespace

Status SaveCycleConfig(const CycleConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  WriteSeq2SeqConfig(out, "forward", config.forward);
  WriteSeq2SeqConfig(out, "backward", config.backward);
  out << "arch=" << ArchTypeName(config.arch) << '\n';
  out << "lambda=" << config.lambda << '\n';
  out << "beam_width=" << config.beam_width << '\n';
  out << "top_n=" << config.top_n << '\n';
  out << "max_title_len=" << config.max_title_len << '\n';
  out << "max_query_len=" << config.max_query_len << '\n';
  if (!out.good()) return Status::IoError("failed writing " + path);
  return Status::OK();
}

Result<CycleConfig> LoadCycleConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open " + path);
  }
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  // A mid-file read error must not be mistaken for EOF: a half-read
  // config would quietly fall back to defaults for the missing keys.
  if (in.bad()) return Status::IoError("read error in " + path);
  CycleConfig config;
  CYQR_RETURN_IF_ERROR(ReadSeq2SeqConfig(kv, "forward", &config.forward));
  CYQR_RETURN_IF_ERROR(ReadSeq2SeqConfig(kv, "backward", &config.backward));
  if (auto it = kv.find("arch"); it != kv.end()) {
    if (it->second == ArchTypeName(ArchType::kAttentionRnn)) {
      config.arch = ArchType::kAttentionRnn;
    } else if (it->second != ArchTypeName(ArchType::kTransformer)) {
      return Status::InvalidArgument("config arch='" + it->second +
                                     "' names no architecture");
    }
  }
  CYQR_RETURN_IF_ERROR(ReadNumber(kv, "lambda", &config.lambda));
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, "beam_width", kMaxDecodeSize, &config.beam_width));
  CYQR_RETURN_IF_ERROR(ReadSize(kv, "top_n", kMaxDecodeSize, &config.top_n));
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, "max_title_len", kMaxDecodeSize, &config.max_title_len));
  CYQR_RETURN_IF_ERROR(
      ReadSize(kv, "max_query_len", kMaxDecodeSize, &config.max_query_len));
  return config;
}

}  // namespace cyqr
