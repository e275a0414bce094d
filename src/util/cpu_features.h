// cpu_features — the single cached CPUID probe behind the runtime-dispatched
// BMI2 interleave in sfc/interleave.h.
//
// One probe, one escape hatch: the feature set is read exactly once (first
// call), and the SUBCOVER_FORCE_SCALAR environment variable — read at the
// same moment — downgrades the process to the portable per-bit interleave
// loop. One place to probe, one place to force the fallback path in CI, and
// a perfectly predicted branch after the first call either way.
//
// The BMI2 kernels are byte-identical to the loop by contract (pinned by
// the interleave equivalence tests), so the hatch changes speed, never
// answers.
#pragma once

namespace subcover {

struct cpu_features_t {
  // BMI2 pdep/pext (the interleave kernels).
  bool bmi2 = false;
  // SUBCOVER_FORCE_SCALAR was set (non-empty, not "0") when the process
  // first probed; bmi2 is already downgraded accordingly.
  bool force_scalar = false;
};

// The cached probe. Thread-safe (C++ static initialization); never changes
// after the first call.
[[nodiscard]] const cpu_features_t& cpu_features();

}  // namespace subcover
