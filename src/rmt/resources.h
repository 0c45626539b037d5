// ASIC configuration and resource accounting.
//
// The paper's entire motivation is that RMT hardware constrains what a
// data-plane program may do: a bounded number of match-action stages, a
// maximum match-key width, and a small per-stage ALU-accessible byte count.
// Programs in this repo declare every table and register array against a
// `Resources` ledger which enforces those limits and can print a usage
// report like the paper's §4 (stages / SRAM / ALUs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace orbit::rmt {

// Match-key width limit (paper §2.1). NetCache matches on the item key
// itself, so this is also its key-size limit.
inline constexpr uint32_t kMaxMatchKeyBytes = 16;

struct AsicConfig {
  // Tofino-1-class defaults.
  int num_stages = 12;
  uint32_t alu_bytes_per_stage = 8;    // k: register bytes one stage can touch
  uint32_t sram_bytes_per_stage = 1280 * 1024;
  int alus_per_stage = 4;
  int tables_per_stage = 4;

  double recirc_rate_gbps = 100.0;     // single internal recirculation port
};

// One declared data-plane object (table or register array).
struct ResourceEntry {
  std::string name;
  int stage = 0;
  uint64_t sram_bytes = 0;
  int alus = 0;
  int tables = 0;
  uint32_t match_key_bytes = 0;  // 0 for register arrays
};

class Resources {
 public:
  explicit Resources(const AsicConfig& config) : config_(config) {}

  const AsicConfig& config() const { return config_; }

  // Declares an object; throws CheckFailure when it violates a hardware
  // limit (bad stage, key too wide, per-stage budget exceeded).
  void Declare(const ResourceEntry& entry);

  int stages_used() const;
  uint64_t sram_bytes_used() const;
  double sram_fraction_used() const;
  int alus_used() const;

  // Human-readable usage summary in the style of the paper's §4.
  std::string Report() const;

  const std::vector<ResourceEntry>& entries() const { return entries_; }

 private:
  AsicConfig config_;
  std::vector<ResourceEntry> entries_;
};

}  // namespace orbit::rmt
