// Environment-variable knobs for the benchmark harness.
#pragma once

#include <cstdint>

namespace tcio {

/// Reads an integer environment variable; returns `fallback` when unset or
/// unparsable.
std::int64_t envInt64(const char* name, std::int64_t fallback);

/// Resolves a tri-state integrity setting: > 0 on, < 0 off, and 0 defers to
/// the TCIO_INTEGRITY environment variable (on when it is > 0).
bool integrityOn(std::int64_t setting);

}  // namespace tcio
