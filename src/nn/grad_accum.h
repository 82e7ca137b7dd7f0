#ifndef CYCLEQR_NN_GRAD_ACCUM_H_
#define CYCLEQR_NN_GRAD_ACCUM_H_

#include <vector>

#include "tensor/tensor.h"

namespace cyqr {

/// Gradient accumulation seam for data-parallel training: flat float
/// vectors are what the collective all-reduce sums, and parameter copies
/// are how worker replicas track the coordinator's master model. Both
/// helpers walk the parameter list in its stable registration order, the
/// flat layout Adam::StepRange reads the reduced gradient in.

/// Total number of scalars across `params`.
int64_t TotalParameterSize(const std::vector<Tensor>& params);

/// Concatenates every parameter's gradient into `flat` (in parameter
/// order), overwriting it. `flat` must already hold exactly
/// TotalParameterSize(params) elements, so a training run allocates each
/// gradient slot once. Parameters whose gradient was never touched by
/// backward contribute zeros — a shard that skipped a sub-model still
/// produces a full-length, summable vector.
void FlattenGradients(const std::vector<Tensor>& params,
                      std::vector<float>* flat);

/// Copies parameter *values* src -> dst elementwise. The two lists must
/// be congruent (same count, same shapes) — replicas built from the same
/// config always are. Gradient buffers are left untouched.
void CopyParameters(const std::vector<Tensor>& dst,
                    const std::vector<Tensor>& src);

}  // namespace cyqr

#endif  // CYCLEQR_NN_GRAD_ACCUM_H_
