#ifndef CYCLEQR_DECODE_GREEDY_H_
#define CYCLEQR_DECODE_GREEDY_H_

#include "decode/common.h"

namespace cyqr {

/// Greedy decoding: the most likely token at each step. Returns exactly one
/// sequence. The paper notes this "outputs only one sequence, which does
/// not fit into our algorithm" — it is implemented as the baseline decoder
/// for the decoding ablation, as beam search with k = 1 (options.beam_size
/// is ignored).
DecodedSequence GreedyDecode(const Seq2SeqModel& model,
                             const std::vector<int32_t>& src_ids,
                             const DecodeOptions& options = {});

}  // namespace cyqr

#endif  // CYCLEQR_DECODE_GREEDY_H_
