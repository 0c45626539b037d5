#include "rmt/resources.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/check.h"

namespace orbit::rmt {

void Resources::Declare(const ResourceEntry& entry) {
  ORBIT_CHECK_MSG(entry.stage >= 0 && entry.stage < config_.num_stages,
                  entry.name << ": stage " << entry.stage << " outside 0.."
                             << config_.num_stages - 1);
  ORBIT_CHECK_MSG(entry.match_key_bytes <= kMaxMatchKeyBytes,
                  entry.name << ": match key " << entry.match_key_bytes
                             << "B exceeds ASIC limit of "
                             << kMaxMatchKeyBytes << "B");
  uint64_t stage_sram = entry.sram_bytes;
  int stage_alus = entry.alus;
  int stage_tables = entry.tables;
  for (const auto& e : entries_) {
    if (e.stage != entry.stage) continue;
    stage_sram += e.sram_bytes;
    stage_alus += e.alus;
    stage_tables += e.tables;
  }
  ORBIT_CHECK_MSG(stage_sram <= config_.sram_bytes_per_stage,
                  entry.name << ": stage " << entry.stage << " SRAM "
                             << stage_sram << "B exceeds "
                             << config_.sram_bytes_per_stage << "B");
  ORBIT_CHECK_MSG(stage_alus <= config_.alus_per_stage,
                  entry.name << ": stage " << entry.stage << " needs "
                             << stage_alus << " ALUs > "
                             << config_.alus_per_stage);
  ORBIT_CHECK_MSG(stage_tables <= config_.tables_per_stage,
                  entry.name << ": stage " << entry.stage << " holds "
                             << stage_tables << " tables > "
                             << config_.tables_per_stage);
  entries_.push_back(entry);
}

int Resources::stages_used() const {
  int max_stage = -1;
  for (const auto& e : entries_) max_stage = std::max(max_stage, e.stage);
  return max_stage + 1;
}

uint64_t Resources::sram_bytes_used() const {
  uint64_t total = 0;
  for (const auto& e : entries_) total += e.sram_bytes;
  return total;
}

double Resources::sram_fraction_used() const {
  const double budget = static_cast<double>(config_.sram_bytes_per_stage) *
                        config_.num_stages;
  return static_cast<double>(sram_bytes_used()) / budget;
}

int Resources::alus_used() const {
  int total = 0;
  for (const auto& e : entries_) total += e.alus;
  return total;
}

std::string Resources::Report() const {
  std::ostringstream os;
  os << "data-plane resource usage: " << stages_used() << "/"
     << config_.num_stages << " stages, " << sram_bytes_used() / 1024
     << " KiB SRAM (" << sram_fraction_used() * 100 << "% of budget), "
     << alus_used() << " ALUs\n";
  std::map<int, std::vector<const ResourceEntry*>> by_stage;
  for (const auto& e : entries_) by_stage[e.stage].push_back(&e);
  for (const auto& [stage, list] : by_stage) {
    os << "  stage " << stage << ":";
    for (const auto* e : list) {
      os << " " << e->name << "(" << e->sram_bytes / 1024 << "KiB";
      if (e->match_key_bytes > 0) os << ", key " << e->match_key_bytes << "B";
      os << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace orbit::rmt
