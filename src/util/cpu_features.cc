#include "util/cpu_features.h"

#include <cstdlib>
#include <cstring>

namespace subcover {

namespace {

cpu_features_t probe() {
  cpu_features_t f;
  const char* env = std::getenv("SUBCOVER_FORCE_SCALAR");
  f.force_scalar = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  if (f.force_scalar) return f;  // bmi2 stays false
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  f.bmi2 = __builtin_cpu_supports("bmi2") != 0;
#endif
  return f;
}

}  // namespace

const cpu_features_t& cpu_features() {
  static const cpu_features_t f = probe();
  return f;
}

}  // namespace subcover
