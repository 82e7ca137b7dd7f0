// Golden outputs of all five decoders over a fixed option grid, on the
// DecodeTest transformer and on a hybrid model with a GRU decoder.
//
// Each decode renders as one line: a label naming the model, decoder and
// options, then every returned sequence as " | <ids> @ <log_prob>", with
// log_prob a hex float. Ids must match decode_golden.txt exactly and
// log_prob within 1e-5 (one toolchain reproduces the file bit for bit; the
// tolerance absorbs last-bit libm differences between toolchains).
//
// On a mismatch the test writes the full rendering to
// decode_golden.actual.txt in its working directory. After a deliberate
// change of decoder behaviour, review that file and copy it over
// tests/decode/decode_golden.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/rng.h"
#include "decode/beam.h"
#include "decode/diverse_beam.h"
#include "decode/greedy.h"
#include "decode/nucleus.h"
#include "decode/topn_sampling.h"
#include "nmt/hybrid.h"
#include "nmt/transformer.h"
#include "tiny_models.h"

namespace cyqr {
namespace {

constexpr double kLogProbTolerance = 1e-5;

struct GoldenDecode {
  std::string label;
  std::vector<DecodedSequence> out;
};

std::string RenderIds(const std::vector<int32_t>& ids) {
  std::string s;
  for (int32_t id : ids) s += " " + std::to_string(id);
  return s;
}

std::string Render(const GoldenDecode& d) {
  std::string line = d.label;
  for (const DecodedSequence& s : d.out) {
    char hex[64];
    std::snprintf(hex, sizeof(hex), "%a", s.log_prob);
    line += " |" + RenderIds(s.ids) + " @ " + hex;
  }
  return line;
}

/// Inverse of Render; false on a malformed line.
bool Parse(const std::string& line, GoldenDecode* d) {
  size_t bar = line.find(" |");
  d->label = line.substr(0, bar);
  d->out.clear();
  while (bar != std::string::npos) {
    const size_t next = line.find(" |", bar + 2);
    const std::string field = line.substr(bar + 2, next - bar - 2);
    const size_t at = field.find(" @ ");
    if (at == std::string::npos) return false;
    DecodedSequence s;
    std::istringstream ids(field.substr(0, at));
    int32_t id = 0;
    while (ids >> id) s.ids.push_back(id);
    const std::string hex = field.substr(at + 3);
    char* end = nullptr;
    s.log_prob = std::strtod(hex.c_str(), &end);
    if (end != hex.c_str() + hex.size()) return false;
    d->out.push_back(std::move(s));
    bar = next;
  }
  return true;
}

/// Runs the whole grid on one model; `name` prefixes every label.
void RunGrid(const Seq2SeqModel& model, const std::string& name,
             std::vector<GoldenDecode>* decodes) {
  auto add = [&](const std::string& label,
                 std::vector<DecodedSequence> out) {
    decodes->push_back({name + " " + label, std::move(out)});
  };
  const std::vector<std::vector<int32_t>> sources = {
      {4, 5}, {6, 7}, {8}, {9, 10}};
  for (size_t si = 0; si < sources.size(); ++si) {
    const std::vector<int32_t>& src = sources[si];
    const std::string at = "src" + std::to_string(si);
    DecodeOptions base;
    base.max_len = 6;
    add(at + " greedy", {GreedyDecode(model, src, base)});
    for (int64_t k : {1, 2, 3, 5, 7}) {
      for (float alpha : {0.0f, 2.0f}) {
        DecodeOptions o = base;
        o.beam_size = k;
        o.length_penalty = alpha;
        add(at + " beam k=" + std::to_string(k) +
                " alpha=" + std::to_string(alpha),
            BeamSearchDecode(model, src, o));
      }
    }
    for (int64_t k : {1, 3, 6}) {
      for (int64_t groups : {1, 2, 3}) {
        for (float penalty : {0.5f, 2.0f}) {
          DecodeOptions o = base;
          o.beam_size = k;
          o.num_groups = groups;
          o.diversity_penalty = penalty;
          add(at + " diverse k=" + std::to_string(k) +
                  " groups=" + std::to_string(groups) +
                  " penalty=" + std::to_string(penalty),
              DiverseBeamSearchDecode(model, src, o));
        }
      }
    }
    for (int64_t k : {1, 3, 7}) {
      for (int64_t n : {1, 5, 40}) {
        DecodeOptions o = base;
        o.beam_size = k;
        o.top_n = n;
        add(at + " topn k=" + std::to_string(k) + " n=" + std::to_string(n),
            TopNSamplingDecode(model, src, o));
      }
      for (double p : {0.5, 0.9, 1.0}) {
        DecodeOptions o = base;
        o.beam_size = k;
        NucleusOptions nucleus;
        nucleus.top_p = p;
        add(at + " nucleus k=" + std::to_string(k) +
                " p=" + std::to_string(p),
            NucleusSamplingDecode(model, src, o, nucleus));
      }
    }
  }

  // The Rng& overloads advance one caller-owned stream across decodes.
  Rng shared(7);
  for (int rep = 0; rep < 3; ++rep) {
    DecodeOptions o;
    o.max_len = 6;
    o.beam_size = 3;
    o.top_n = 5;
    const std::string r = " rep=" + std::to_string(rep);
    add("shared topn" + r, TopNSamplingDecode(model, {4, 5}, o, shared));
    add("shared nucleus" + r,
        NucleusSamplingDecode(model, {6, 7}, o, NucleusOptions{}, shared));
  }

  // Truncation by max_len.
  DecodeOptions short_options;
  short_options.max_len = 2;
  add("max_len=2 greedy", {GreedyDecode(model, {4, 5}, short_options)});
  add("max_len=2 beam", BeamSearchDecode(model, {4, 5}, short_options));
  add("max_len=2 diverse",
      DiverseBeamSearchDecode(model, {4, 5}, short_options));
  add("max_len=2 topn", TopNSamplingDecode(model, {4, 5}, short_options));
  add("max_len=2 nucleus",
      NucleusSamplingDecode(model, {4, 5}, short_options));

  // An already-expired deadline.
  Deadline expired = Deadline::AfterMillis(0);
  expired.Charge(1.0);
  DecodeOptions late;
  late.deadline = &expired;
  add("expired greedy", {GreedyDecode(model, {4, 5}, late)});
  add("expired beam", BeamSearchDecode(model, {4, 5}, late));
  add("expired diverse", DiverseBeamSearchDecode(model, {4, 5}, late));
  add("expired topn", TopNSamplingDecode(model, {4, 5}, late));
  add("expired nucleus", NucleusSamplingDecode(model, {4, 5}, late));
}

/// Compares one decode against its golden line; returns a description of
/// the first difference, or "" when they agree.
std::string Diff(const GoldenDecode& want, const GoldenDecode& got) {
  if (want.label != got.label) return "label differs";
  if (want.out.size() != got.out.size()) return "sequence count differs";
  for (size_t i = 0; i < want.out.size(); ++i) {
    if (want.out[i].ids != got.out[i].ids) {
      return "ids of sequence " + std::to_string(i) + " differ";
    }
    if (std::fabs(want.out[i].log_prob - got.out[i].log_prob) >
        kLogProbTolerance) {
      return "log_prob of sequence " + std::to_string(i) + " differs";
    }
  }
  return "";
}

TEST(DecodeGoldenTest, AllDecodersMatchGoldenOutputs) {
  Rng transformer_rng(11);  // DecodeTest's model.
  TransformerSeq2Seq transformer(TinyDecodeConfig(), transformer_rng);
  TrainOnTinyPairs(transformer);
  Rng hybrid_rng(12);
  HybridSeq2Seq hybrid(TinyDecodeConfig(), CellType::kGru, hybrid_rng);
  TrainOnTinyPairs(hybrid);

  std::vector<GoldenDecode> got;
  RunGrid(transformer, "transformer", &got);
  RunGrid(hybrid, "hybrid-gru", &got);

  std::vector<GoldenDecode> want;
  std::ifstream golden(CYQR_DECODE_GOLDEN);
  ASSERT_TRUE(golden.is_open()) << "cannot open " << CYQR_DECODE_GOLDEN;
  for (std::string line; std::getline(golden, line);) {
    GoldenDecode d;
    ASSERT_TRUE(Parse(line, &d)) << "malformed golden line: " << line;
    want.push_back(std::move(d));
  }

  int mismatches = 0;
  if (want.size() != got.size()) {
    ADD_FAILURE() << "golden file has " << want.size() << " decodes, the "
                  << "grid ran " << got.size();
    ++mismatches;
  }
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    const std::string diff = Diff(want[i], got[i]);
    if (diff.empty()) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << diff << "\n  want: " << Render(want[i])
                    << "\n  got:  " << Render(got[i]);
    }
  }
  if (mismatches > 0) {
    std::ofstream actual("decode_golden.actual.txt");
    for (const GoldenDecode& d : got) actual << Render(d) << "\n";
    actual.close();
    EXPECT_TRUE(actual.good()) << "cannot write decode_golden.actual.txt";
    ADD_FAILURE() << mismatches << " decodes differ; full rendering in "
                  << "decode_golden.actual.txt";
  }
}

}  // namespace
}  // namespace cyqr
