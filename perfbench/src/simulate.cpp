#include <stdexcept>

#include "softfloat/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

Simulated simulate(const kernels::KernelSpec& spec,
                   const ir::LoweredKernel& lowered, const sim::MemConfig& mem,
                   sim::Engine engine, fp::MathBackend backend) {
  Simulated s;
  const double t0 = thread_cpu_ms();
  sim::Core core(sfrv::isa::IsaConfig::full(), mem);
  core.set_engine(engine);
  core.set_backend(backend);
  core.load_program(lowered.program);
  const double t1 = thread_cpu_ms();
  if (core.run() != sim::Core::RunResult::Halted) {
    throw std::runtime_error("kernel did not halt: " + spec.kernel.name);
  }
  const double t2 = thread_cpu_ms();
  s.stats = core.stats();
  s.fflags = core.fflags();
  s.jit = core.jit_stats();
  for (const auto& name : spec.output_arrays) {
    const auto& arr = spec.kernel.arrays[static_cast<std::size_t>(
        spec.kernel.array_index(name))];
    const std::uint32_t addr = lowered.array_addr.at(name);
    const int esize = ir::width_bytes(arr.type);
    for (int e = 0; e < arr.elems(); ++e) {
      std::uint64_t bits = 0;
      core.memory().read_block(addr + static_cast<std::uint32_t>(e * esize),
                               &bits, static_cast<std::size_t>(esize));
      s.output_bytes.append(reinterpret_cast<const char*>(&bits),
                            static_cast<std::size_t>(esize));
      s.outputs.push_back(fp::rt_to_double(ir::fp_format(arr.type), bits));
    }
  }
  const double t3 = thread_cpu_ms();
  s.setup_ms = t1 - t0;
  s.run_ms = t2 - t1;
  s.readback_ms = t3 - t2;
  return s;
}

}  // namespace perfbench
