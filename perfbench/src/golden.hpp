// Host-double reference outputs for the sim-long kernels, computed by the
// benchmark from a KernelSpec's inputs and the kernel definitions (Polybench
// GEMM/ATAX/SYR2K/FDTD-2D, valid 2-D convolution, a fully connected layer).
// It reads only the spec's input arrays and shapes, never its `golden`
// field, so the SQNR it yields does not trust the program's own reference.
#pragma once

#include <vector>

#include "kernels/runner.hpp"

namespace perfbench {

/// Expected outputs, concatenated in `spec.output_arrays` order. Throws for
/// a kernel it has no definition of.
[[nodiscard]] std::vector<double> reference_outputs(
    const sfrv::kernels::KernelSpec& spec);

}  // namespace perfbench
