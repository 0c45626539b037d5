#include "verify/verify.h"

#include <sstream>

#include "rmt/resources.h"

namespace orbit::verify {

Verifier::Verifier(const VerifyOptions& options)
    : options_(options),
      strict_versions_(options.epoch_guard && !options.write_back) {}

void Verifier::OnClientSend(Addr client, uint32_t seq, const Key& key,
                            bool is_write, uint32_t write_size) {
  PendingOp op;
  op.key = key;
  op.is_write = is_write;
  op.write_size = write_size;
  op.floor_at_send = StateOf(key).floor_v;
  pending_[OpKey(client, seq)] = std::move(op);
}

void Verifier::OnClientFragment(Addr client, uint32_t seq, uint32_t bytes) {
  auto it = pending_.find(OpKey(client, seq));
  if (it == pending_.end()) return;
  it->second.frag_bytes += bytes;
}

void Verifier::OnClientAccept(Addr client, uint32_t seq, const Key& key,
                              bool is_write, bool multi_frag, uint32_t size,
                              uint64_t version) {
  const uint64_t op_key = OpKey(client, seq);
  auto it = pending_.find(op_key);
  if (it == pending_.end()) {
    // A reply the client accepted for a request the oracle never saw sent:
    // the client-side hooks are out of sync (a bug in the wiring, not the
    // protocol), so flag it rather than silently skip.
    AddViolation("unknown_accept",
                 "client " + std::to_string(client) + " seq " +
                     std::to_string(seq) + " accepted with no pending op");
    return;
  }
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  ++replies_checked_;

  if (op.key != key) {
    AddViolation("key_mismatch", "seq " + std::to_string(seq) +
                                     " sent key '" + op.key +
                                     "' but accepted reply for '" + key + "'");
    return;
  }
  const uint64_t reply_bytes = multi_frag ? op.frag_bytes : size;
  KeyState& st = StateOf(key);

  // Version checks. version == 0 marks a reply that carries no recoverable
  // version (e.g. a bare write ack); only size/shape checks apply then.
  if (version != 0) {
    if (version > st.cur) {
      // A version no authority ever committed — impossible regardless of
      // coherence mode, since every version mint is hooked.
      AddViolation("future_version",
                   "key '" + key + "' reply version " +
                       std::to_string(version) + " > highest committed " +
                       std::to_string(st.cur));
    } else if (is_write) {
      // A write's ack must carry the version that write (or a later one)
      // committed; a version at or below the send-time floor means the
      // ack reflects a state from before this write linearized.
      if (version <= op.floor_at_send) {
        if (strict_versions_ && !reset_relaxed_) {
          AddViolation("stale_write_ack",
                       "key '" + key + "' write ack version " +
                           std::to_string(version) + " <= send-time floor " +
                           std::to_string(op.floor_at_send));
        } else {
          ++allowed_stale_;
        }
      }
    } else if (version < op.floor_at_send) {
      // Read staleness: a completed operation had already observed a newer
      // version before this read was sent, so no linearization point can
      // justify the older value.
      if (strict_versions_ && !reset_relaxed_) {
        AddViolation("stale_read",
                     "key '" + key + "' read version " +
                         std::to_string(version) + " < send-time floor " +
                         std::to_string(op.floor_at_send));
      } else {
        ++allowed_stale_;
      }
    }

    // Size must match what was committed at that version (when known; a
    // version pruned below the floor or relaxed away is unknowable).
    if (!is_write && reply_bytes != 0) {
      auto sz = st.sizes.find(version);
      if (sz != st.sizes.end() && sz->second != reply_bytes) {
        AddViolation("size_mismatch",
                     "key '" + key + "' version " + std::to_string(version) +
                         " committed size " + std::to_string(sz->second) +
                         " but reply carried " + std::to_string(reply_bytes));
      }
    }
  }

  if (is_write && reply_bytes != 0 && reply_bytes != op.write_size &&
      op.write_size != 0) {
    AddViolation("write_ack_size",
                 "key '" + key + "' write of " +
                     std::to_string(op.write_size) + " bytes acked with " +
                     std::to_string(reply_bytes));
  }

  // This op completed having observed `version`: raise the key's floor so
  // later-sent requests must see at least this state.
  if (version > st.floor_v) {
    st.floor_v = version;
    st.sizes.erase(st.sizes.begin(), st.sizes.lower_bound(st.floor_v));
  }
}

void Verifier::OnClientDrop(Addr client, uint32_t seq) {
  pending_.erase(OpKey(client, seq));
}

void Verifier::OnCommit(const Key& key, uint32_t size, uint64_t version) {
  ++commits_seen_;
  KeyState& st = StateOf(key);
  if (version > st.cur) st.cur = version;
  if (version >= st.floor_v) st.sizes[version] = size;
}

void Verifier::OnSwitchReset() {
  if (options_.write_back) reset_relaxed_ = true;
}

void Verifier::OnQueueState(const char* where, uint32_t idx, uint32_t qlen,
                            uint32_t front, uint32_t rear,
                            uint32_t queue_size) {
  ++queue_states_checked_;
  const bool occupancy_ok = qlen <= queue_size;
  const bool cursors_ok = front < queue_size && rear < queue_size;
  const bool ring_ok = rear == (front + qlen) % queue_size;
  if (occupancy_ok && cursors_ok && ring_ok) return;
  std::ostringstream os;
  os << where << " slot " << idx << ": qlen=" << qlen << " front=" << front
     << " rear=" << rear << " size=" << queue_size;
  if (!occupancy_ok) os << " [occupancy > capacity]";
  if (!cursors_ok) os << " [cursor out of range]";
  if (!ring_ok) os << " [rear != (front+qlen) % size]";
  AddViolation("request_table_ring", os.str());
}

void Verifier::OnRelease(const sim::Packet& pkt) {
  if (!packet_accounting_) return;
  ++releases_checked_;
  if (pkt.end_reason == sim::PacketEnd::kNone) {
    std::ostringstream os;
    os << "packet released with no terminal reason: op="
       << static_cast<int>(pkt.msg.op) << " src=" << pkt.src
       << " dst=" << pkt.dst << " seq=" << pkt.msg.seq << " key='"
       << pkt.msg.key << "'";
    AddViolation("silent_drop", os.str());
  }
}

void Verifier::Finalize(const EndOfRun& end) {
  DisarmPacketAccounting();
  finalized_ = true;

  // Leak equation: everything the pool ever handed out either came back or
  // is accounted for as legitimately in flight (queued deliveries, packets
  // riding server completion timers).
  const uint64_t live = end.pool_acquired - end.pool_released;
  if (live != end.expected_live) {
    std::ostringstream os;
    os << "pool live count " << live << " (acquired " << end.pool_acquired
       << " - released " << end.pool_released << ") != expected in-flight "
       << end.expected_live;
    AddViolation("packet_leak", os.str());
  }

  // Orbit census: in steady state every cached key keeps exactly one
  // packet in orbit. Only exact for configurations the testbed vouches
  // for (see EndOfRun::valid_entries).
  if (end.valid_entries >= 0) {
    orbit_note_ = "orbit census checked";
    if (end.recirc_in_flight != end.valid_entries) {
      std::ostringstream os;
      os << "recirculating packets " << end.recirc_in_flight
         << " != valid cache entries " << end.valid_entries;
      AddViolation("orbit_census", os.str());
    }
  } else {
    orbit_note_ = "orbit census skipped: " + (end.orbit_skip_reason.empty()
                                                  ? std::string("n/a")
                                                  : end.orbit_skip_reason);
  }

  // RMT budget re-validation: Declare() already throws at configuration
  // time, so this is a cheap aggregate audit of the recorded ledger
  // against the ASIC limits.
  if (end.resources != nullptr) {
    const rmt::Resources& res = *end.resources;
    const rmt::AsicConfig& asic = res.config();
    if (res.stages_used() > asic.num_stages) {
      AddViolation("rmt_stages",
                   "stages used " + std::to_string(res.stages_used()) +
                       " > budget " + std::to_string(asic.num_stages));
    }
    std::map<int, uint64_t> sram;
    std::map<int, int> alus;
    std::map<int, int> tables;
    for (const auto& e : res.entries()) {
      sram[e.stage] += e.sram_bytes;
      alus[e.stage] += e.alus;
      tables[e.stage] += e.tables;
      if (e.match_key_bytes > rmt::kMaxMatchKeyBytes) {
        AddViolation("rmt_match_key",
                     e.name + ": match key " +
                         std::to_string(e.match_key_bytes) + "B > limit " +
                         std::to_string(rmt::kMaxMatchKeyBytes) + "B");
      }
    }
    for (const auto& [stage, bytes] : sram) {
      if (bytes > asic.sram_bytes_per_stage) {
        AddViolation("rmt_sram", "stage " + std::to_string(stage) + ": " +
                                     std::to_string(bytes) + "B > " +
                                     std::to_string(asic.sram_bytes_per_stage) +
                                     "B");
      }
    }
    for (const auto& [stage, n] : alus) {
      if (n > asic.alus_per_stage) {
        AddViolation("rmt_alus", "stage " + std::to_string(stage) + ": " +
                                     std::to_string(n) + " ALUs > " +
                                     std::to_string(asic.alus_per_stage));
      }
    }
    for (const auto& [stage, n] : tables) {
      if (n > asic.tables_per_stage) {
        AddViolation("rmt_tables", "stage " + std::to_string(stage) + ": " +
                                       std::to_string(n) + " tables > " +
                                       std::to_string(asic.tables_per_stage));
      }
    }
  }
}

void Verifier::AddViolation(const std::string& check,
                            const std::string& detail) {
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(Violation{check, detail});
  }
}

std::string Verifier::Report() const {
  std::ostringstream os;
  os << "verify: " << (ok() ? "OK" : "FAILED") << " ("
     << violation_count_ << " violation"
     << (violation_count_ == 1 ? "" : "s") << ")\n";
  os << "  replies checked: " << replies_checked_
     << ", commits seen: " << commits_seen_
     << ", allowed stale: " << allowed_stale_ << "\n";
  os << "  queue states checked: " << queue_states_checked_
     << ", releases audited: " << releases_checked_ << "\n";
  os << "  version mode: " << (strict_versions_ ? "strict" : "relaxed")
     << (reset_relaxed_ ? " (write-back reset observed)" : "") << "\n";
  if (finalized_ && !orbit_note_.empty()) os << "  " << orbit_note_ << "\n";
  if (!pending_.empty()) {
    os << "  in-flight ops at stop: " << pending_.size() << "\n";
  }
  size_t i = 0;
  for (const Violation& v : violations_) {
    os << "  [" << i++ << "] " << v.check << ": " << v.detail << "\n";
  }
  if (violation_count_ > violations_.size()) {
    os << "  ... " << (violation_count_ - violations_.size())
       << " more violations not stored\n";
  }
  return os.str();
}

}  // namespace orbit::verify
