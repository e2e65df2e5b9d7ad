#include "common/env.h"

#include <cstdlib>

namespace tcio {

std::int64_t envInt64(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

bool integrityOn(std::int64_t setting) {
  return setting > 0 || (setting == 0 && envInt64("TCIO_INTEGRITY", 0) > 0);
}

}  // namespace tcio
