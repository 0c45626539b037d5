#include "workload/ycsb.h"

namespace orbit::wl {

const std::vector<YcsbProfile>& YcsbCoreWorkloads() {
  static const std::vector<YcsbProfile> kProfiles = {
      {"A", 0.50, 0.99},
      {"B", 0.05, 0.99},
      {"C", 0.00, 0.99},
  };
  return kProfiles;
}

}  // namespace orbit::wl
