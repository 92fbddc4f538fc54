// The untraced build: no layer entry point is wrapped.

#include "bench.hpp"

namespace perfbench {

bool traced_build() { return false; }

}  // namespace perfbench
