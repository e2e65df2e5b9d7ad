// Environment-variable knobs for the benchmark harness.
#pragma once

#include <cstdint>

namespace tcio {

/// Reads an integer environment variable; returns `fallback` when unset or
/// unparsable.
std::int64_t envInt64(const char* name, std::int64_t fallback);

}  // namespace tcio
