// The OrbitCache message (paper §3.2 Fig. 3, plus the §4 prototype extras).
//
// Wire layout, after the simulated Ethernet/IP/UDP encapsulation:
//
//   OP (1B) | SEQ (4B) | HKEY (16B) | FLAG (1B)        — 22B paper header
//   CACHED (1B) | LATENCY (4B) | SRVID (1B) | EPOCH (4B) — prototype extras
//   KEYLEN (2B) | key bytes | value bytes               — payload
//
// CACHED / LATENCY / SRVID mirror the paper's own prototype additions for
// latency attribution. EPOCH is this reproduction's coherence hardening
// field (see orbitcache/program.h and netcache/program.h): the switch
// stamps its per-entry write epoch into requests and servers echo it, which
// closes a stale-revalidation race present in the paper's binary
// valid/invalid protocol.
#pragma once

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/types.h"
#include "kv/value.h"

namespace orbit::proto {

enum class Op : uint8_t {
  kReadReq = 1,        // R-REQ
  kWriteReq = 2,       // W-REQ
  kReadRep = 3,        // R-REP
  kWriteRep = 4,       // W-REP
  kFetchReq = 5,       // F-REQ (controller -> server, value fetch)
  kFetchRep = 6,       // F-REP (server -> controller; becomes a cache packet)
  kCorrectionReq = 7,  // CRN-REQ (client bypasses the cache after collision)
  kTopKReport = 8,     // server -> controller hot-key report (TCP in paper)
  kProbe = 9,          // fabric liveness probe (switch CPU -> neighbor)
  kProbeAck = 10,      // neighbor turns a probe around on its ingress port
};

const char* OpName(Op op);

// FLAG bit set by the switch on write requests for cached items so the
// server appends the new value to the write reply (paper §3.3). In the
// multi-packet extension (§3.10) the upper bits carry the fragment count.
constexpr uint8_t kFlagCachedWrite = 0x1;
// Write-back extension flags (§3.10): a cache packet carrying unflushed
// data, and an eviction flush write that needs no reply.
constexpr uint8_t kFlagDirty = 0x2;
constexpr uint8_t kFlagFlush = 0x4;

struct Message {
  Op op = Op::kReadReq;
  uint32_t seq = 0;      // request id; wraps around (paper §3.6)
  Hash128 hkey;          // 16-byte key hash, the cache lookup match key
  uint8_t flag = 0;
  // Prototype extras (§4).
  uint8_t cached = 0;    // reply served by the switch cache?
  uint32_t latency = 0;  // scratch field echoed by servers
  uint8_t srv_id = 0;    // emulated server id that produced the reply
  uint32_t epoch = 0;    // coherence epoch (this repo's hardening field)
  // Multi-packet extension: fragment index / total fragments (0/1 for
  // ordinary single-packet items).
  uint8_t frag_index = 0;
  uint8_t frag_total = 1;

  Key key;        // original variable-length key
  kv::Value value;

  // Size of the OrbitCache header as carried on the wire (excluding
  // key/value payload and the L2-L4 encapsulation): the 22B paper header,
  // 10B of prototype extras, 2B of fragment fields, 2B key length.
  static constexpr uint32_t kHeaderBytes = 22 + 10 + 2 + 2;

  // Bytes of OrbitCache payload (key + value).
  uint32_t payload_bytes() const {
    return static_cast<uint32_t>(key.size()) + value.size();
  }
};

// Simulated L2+L3+L4 encapsulation overhead (Ethernet 18 + IPv4 20 + UDP 8),
// applied to every packet for serialization-time accounting.
constexpr uint32_t kEncapBytes = 46;

// Ethernet MTU payload budget: 1500 - IP/UDP (28) = 1472 usable bytes for
// the OrbitCache header + payload. With the 22B paper header the paper
// quotes 1438B of key+value; our prototype extras shrink that, matching the
// paper's own note that its instrumented header supports 1416B values with
// 16B keys (§5.3: 28B custom header).
constexpr uint32_t kMaxOrbitBytes = 1472;
constexpr uint32_t kMaxPayloadBytes = kMaxOrbitBytes - Message::kHeaderBytes;

// Value bytes one packet carries beside a `key_bytes` key; 0 when the key
// alone fills the payload.
constexpr uint32_t ValueBudget(size_t key_bytes) {
  return key_bytes < kMaxPayloadBytes
             ? kMaxPayloadBytes - static_cast<uint32_t>(key_bytes)
             : 0;
}

// A multi-packet item's fragment count rides in the one-byte frag_total.
constexpr uint32_t kMaxFragments = 255;

}  // namespace orbit::proto
