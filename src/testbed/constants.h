// Address/port plan of every testbed (testbed.cc), single ToR or
// leaf–spine fabric (src/fabric/). Keeping one plan means a workload
// built for either topology targets the same server addresses, and the
// fabric's extra controllers slot in above kControllerBase without
// colliding with hosts.
#pragma once

#include "common/types.h"

namespace orbit::testbed {

inline constexpr L4Port kOrbitPort = 5008;
inline constexpr L4Port kCtrlPort = 7000;
inline constexpr Addr kClientBase = 1000;
inline constexpr Addr kServerBase = 2000;
// Rack r's controller sits at kControllerBase + r; the single ToR is
// rack 0.
inline constexpr Addr kControllerBase = 3000;

}  // namespace orbit::testbed
