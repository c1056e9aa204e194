// Path-segment Construction Beacons (Section 2.2).
//
// A PCB is initiated by a core AS and extended hop by hop: before
// propagating, each AS appends an entry with its <ISD, AS> number, the
// ingress/egress interface ids of the traversed links, a chained hop-field
// MAC for the data plane, and a signature over everything so far. The PCB
// carries an initiation and an expiration timestamp set by the origin.
//
// Wire sizes are computed from the documented field layout below; they are
// what the overhead evaluation (Fig. 5, Fig. 9) counts on the links.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/hopfield_mac.hpp"
#include "crypto/signature.hpp"
#include "topology/ids.hpp"
#include "util/time.hpp"

namespace scion::ctrl {

using topo::IfId;
using topo::IsdAsId;
using util::Duration;
using util::TimePoint;

/// A peering link advertised inside an AS entry (enables shortcut /
/// valley-free peering paths in the data plane, Section 2.2).
struct PeerEntry {
  IsdAsId peer_as;
  IfId peer_if{topo::kNoInterface};  // our interface towards the peer
  crypto::HopMac hop_mac{};

  bool operator==(const PeerEntry&) const = default;
};

/// One AS's contribution to a PCB.
struct AsEntry {
  IsdAsId isd_as;
  /// Interface the PCB entered this AS on; kNoInterface at the origin.
  IfId in_if{topo::kNoInterface};
  /// Interface the PCB left this AS on.
  IfId out_if{topo::kNoInterface};
  /// Optional metadata extension (Section 4.2, "Optimizing for other
  /// Criteria"): measured latency of the ingress link in microseconds.
  /// Carried on the wire only when the PCB has the latency extension.
  std::uint32_t ingress_latency_us{0};
  /// Chained hop-field MAC for the data plane (Section 2.3).
  crypto::HopMac hop_mac{};
  /// Advertised peering links (optional, intra-ISD beaconing only).
  std::vector<PeerEntry> peers;
  /// Signature over the segment info and all entries up to and including
  /// this one (sans this signature).
  crypto::Signature signature{};
};

/// Wire-size model (documented constants; see DESIGN.md).
/// Header: origin (8) + timestamp (8) + expiry (8).
inline constexpr std::size_t kPcbHeaderBytes = 24;
/// Entry fixed part: ISD-AS (8) + in/out ifids (4) + hop field
/// (expiry/mac/flags, 8+6) + MTU and certificate pointer (8).
inline constexpr std::size_t kAsEntryFixedBytes = 34;
/// Peer entry: peer ISD-AS (8) + ifid (2) + hop MAC (6).
inline constexpr std::size_t kPeerEntryBytes = 16;
/// Latency metadata extension: 4 bytes per AS entry when carried.
inline constexpr std::size_t kLatencyMetadataBytes = 4;

/// A path-segment construction beacon. Immutable once built; propagation
/// produces a new PCB via extend().
class Pcb {
 public:
  /// Creates a signed origin PCB leaving `origin` on `out_if`.
  static Pcb originate(IsdAsId origin, IfId out_if, TimePoint timestamp,
                       Duration lifetime,
                       const crypto::SigningKey& signing_key,
                       const crypto::ForwardingKey& forwarding_key);

  /// Crypto-free variant for large-scale overhead simulations: signature
  /// and MAC fields are zeroed (wire sizes are unchanged — the fields are
  /// still carried). Never use where the data plane or verify() matter.
  static Pcb originate_unsigned(IsdAsId origin, IfId out_if,
                                TimePoint timestamp, Duration lifetime);

  IsdAsId origin() const { return entries_.front().isd_as; }
  TimePoint timestamp() const { return timestamp_; }
  TimePoint expiry() const { return expiry_; }
  Duration lifetime() const { return expiry_ - timestamp_; }

  Duration age(TimePoint now) const { return now - timestamp_; }
  Duration remaining_lifetime(TimePoint now) const { return expiry_ - now; }
  bool expired(TimePoint now) const { return now >= expiry_; }

  const std::vector<AsEntry>& entries() const { return entries_; }

  /// Number of inter-AS links a receiver of this PCB is away from the
  /// origin (= number of entries: each entry contributes one traversed
  /// link via its out_if).
  std::size_t hops() const { return entries_.size(); }

  /// Whether an AS already appears in the path (loop prevention).
  bool contains_as(IsdAsId as) const;

  /// Whether the latency metadata extension is carried (adds
  /// kLatencyMetadataBytes per entry on the wire).
  bool carries_latency() const { return carries_latency_; }
  /// Turns the extension on; a second call changes nothing.
  void enable_latency_extension();

  /// Sum of the per-entry ingress latencies (microseconds) — the
  /// disseminated latency estimate of the path.
  std::uint64_t total_latency_us() const;

  /// Total bytes on the wire. Cached: computed when the PCB is built and
  /// updated by extend() and enable_latency_extension().
  util::Bytes wire_size() const { return util::Bytes{wire_size_}; }

  /// Returns a copy extended by `next`: the AS `next.isd_as` appends its
  /// entry (signature must already be filled by the caller via
  /// sign_next_entry()). Prefer extend_signed().
  Pcb extend(AsEntry next) const;

  /// Digest covering the segment info, entries [0, n) in full, and the
  /// candidate entry's fields without its signature — the value the n-th
  /// AS signs.
  crypto::Sha256Digest signing_digest(const AsEntry& candidate) const;

  /// Convenience: builds, MACs (chaining from the last entry), signs and
  /// appends an entry for `as` with the given interfaces.
  Pcb extend_signed(IsdAsId as, IfId in_if, IfId out_if,
                    std::vector<PeerEntry> peers,
                    const crypto::SigningKey& signing_key,
                    const crypto::ForwardingKey& forwarding_key,
                    std::uint32_t ingress_latency_us = 0) const;

  /// Crypto-free extension counterpart of originate_unsigned().
  Pcb extend_unsigned(IsdAsId as, IfId in_if, IfId out_if,
                      std::vector<PeerEntry> peers,
                      std::uint32_t ingress_latency_us = 0) const;

  /// Verifies every entry's signature against `keys` (keyed by
  /// IsdAsId::value()). Returns false on any mismatch. One pass: entry i's
  /// digest is the running hash of the entries before it plus its own
  /// unsigned fields, equal to signing_digest() on that prefix.
  bool verify(crypto::KeyStore& keys) const;

  /// Stable identifier of the AS+interface sequence (independent of the
  /// instance timestamp): two PCBs with equal path_key describe the same
  /// path. A SHA-256 over every entry, so callers on the per-PCB path
  /// compute it only when they keep the result (see BeaconStore::insert).
  /// Used by selection tie-breaks and the sent-PCBs list.
  std::uint64_t path_key() const;

 private:
  Pcb(TimePoint timestamp, TimePoint expiry) : timestamp_{timestamp}, expiry_{expiry} {}

  /// Appends an entry and adds its bytes to the cached wire size.
  void append(AsEntry entry);

  TimePoint timestamp_;
  TimePoint expiry_;
  bool carries_latency_{false};
  /// wire_size() in bytes; fits the padding after carries_latency_.
  std::uint32_t wire_size_{kPcbHeaderBytes};
  std::vector<AsEntry> entries_;
};

using PcbRef = std::shared_ptr<const Pcb>;

}  // namespace scion::ctrl
