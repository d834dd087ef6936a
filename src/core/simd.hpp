#pragma once
// A probe of the host CPU's best vector instruction set, for benchmark
// provenance (`perfbench info`).  No kernel dispatches on it: every backend
// runs the one scalar kernel set of likelihood.hpp and posterior.hpp.

namespace gsnp::core::simd {

/// Instruction-set tiers, worst to best.
enum class Level { kScalar, kSse2, kAvx2, kNeon };

const char* level_name(Level level);

/// The best level __builtin_cpu_supports reports on this host.
Level active_level();

}  // namespace gsnp::core::simd
