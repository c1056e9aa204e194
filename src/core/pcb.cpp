#include "core/pcb.hpp"

#include "util/check.hpp"

namespace scion::ctrl {

namespace {

/// Serializes the signed fields of an entry into a hasher.
void hash_entry_fields(crypto::Sha256& h, const AsEntry& e) {
  h.update_u64(e.isd_as.value());
  h.update_u16(e.in_if.value());
  h.update_u16(e.out_if.value());
  h.update_u32(e.ingress_latency_us);
  h.update(std::span<const std::uint8_t>{e.hop_mac.data(), e.hop_mac.size()});
  h.update_u16(static_cast<std::uint16_t>(e.peers.size()));
  for (const PeerEntry& p : e.peers) {
    h.update_u64(p.peer_as.value());
    h.update_u16(p.peer_if.value());
    h.update(std::span<const std::uint8_t>{p.hop_mac.data(), p.hop_mac.size()});
  }
}

std::uint32_t expiry_unix(TimePoint expiry) {
  return static_cast<std::uint32_t>(expiry.ns() / 1'000'000'000);
}

/// Starts a signing digest: the domain tag and the segment info. The origin
/// id lives in the first entry; hashing the timestamps here binds every
/// signature to the instance.
crypto::Sha256 segment_hasher(TimePoint timestamp, TimePoint expiry) {
  crypto::Sha256 h;
  h.update("scion-mpr/pcb/v1");
  h.update_u64(timestamp.ns() < 0 ? 0 : static_cast<std::uint64_t>(timestamp.ns()));
  h.update_u64(expiry.ns() < 0 ? 0 : static_cast<std::uint64_t>(expiry.ns()));
  return h;
}

}  // namespace

void Pcb::append(AsEntry entry) {
  std::size_t bytes = kAsEntryFixedBytes + crypto::kSignatureBytes +
                      entry.peers.size() * kPeerEntryBytes;
  if (carries_latency_) bytes += kLatencyMetadataBytes;
  wire_size_ += static_cast<std::uint32_t>(bytes);
  entries_.push_back(std::move(entry));
}

void Pcb::enable_latency_extension() {
  if (carries_latency_) return;
  carries_latency_ = true;
  wire_size_ += static_cast<std::uint32_t>(entries_.size() * kLatencyMetadataBytes);
}

Pcb Pcb::originate(IsdAsId origin, IfId out_if, TimePoint timestamp,
                   Duration lifetime, const crypto::SigningKey& signing_key,
                   const crypto::ForwardingKey& forwarding_key) {
  SCION_CHECK(lifetime > Duration::zero(), "PCB lifetime must be positive");
  Pcb pcb{timestamp, timestamp + lifetime};
  AsEntry entry;
  entry.isd_as = origin;
  entry.in_if = topo::kNoInterface;
  entry.out_if = out_if;
  entry.hop_mac = crypto::hop_mac(forwarding_key, entry.in_if.value(), entry.out_if.value(),
                                  expiry_unix(pcb.expiry_), crypto::HopMac{});
  entry.signature = crypto::sign(signing_key, pcb.signing_digest(entry));
  pcb.append(std::move(entry));
  return pcb;
}

Pcb Pcb::originate_unsigned(IsdAsId origin, IfId out_if, TimePoint timestamp,
                            Duration lifetime) {
  SCION_CHECK(lifetime > Duration::zero(), "PCB lifetime must be positive");
  Pcb pcb{timestamp, timestamp + lifetime};
  AsEntry entry;
  entry.isd_as = origin;
  entry.in_if = topo::kNoInterface;
  entry.out_if = out_if;
  pcb.append(std::move(entry));
  return pcb;
}

Pcb Pcb::extend_unsigned(IsdAsId as, IfId in_if, IfId out_if,
                         std::vector<PeerEntry> peers,
                         std::uint32_t ingress_latency_us) const {
  SCION_CHECK(!entries_.empty(), "cannot extend an empty PCB");
  AsEntry entry;
  entry.isd_as = as;
  entry.in_if = in_if;
  entry.out_if = out_if;
  entry.ingress_latency_us = ingress_latency_us;
  entry.peers = std::move(peers);
  return extend(std::move(entry));
}

bool Pcb::contains_as(IsdAsId as) const {
  for (const AsEntry& e : entries_) {
    if (e.isd_as == as) return true;
  }
  return false;
}

std::uint64_t Pcb::total_latency_us() const {
  std::uint64_t total = 0;
  for (const AsEntry& e : entries_) total += e.ingress_latency_us;
  return total;
}

Pcb Pcb::extend(AsEntry next) const {
  SCION_CHECK(!entries_.empty(), "cannot extend an empty PCB");
  // Propagation must filter looping PCBs before extending; a loop here
  // would invalidate the hop-field chain downstream.
  SCION_DCHECK(!contains_as(next.isd_as), "AS already on the PCB path");
  Pcb out{timestamp_, expiry_};
  out.carries_latency_ = carries_latency_;
  out.wire_size_ = wire_size_;
  // Sized for the new entry up front, so copying and appending allocate the
  // entry vector once.
  out.entries_.reserve(entries_.size() + 1);
  out.entries_.insert(out.entries_.end(), entries_.begin(), entries_.end());
  out.append(std::move(next));
  return out;
}

crypto::Sha256Digest Pcb::signing_digest(const AsEntry& candidate) const {
  crypto::Sha256 h = segment_hasher(timestamp_, expiry_);
  for (const AsEntry& e : entries_) {
    hash_entry_fields(h, e);
    h.update(std::span<const std::uint8_t>{e.signature.bytes});
  }
  hash_entry_fields(h, candidate);
  return h.finalize();
}

Pcb Pcb::extend_signed(IsdAsId as, IfId in_if, IfId out_if,
                       std::vector<PeerEntry> peers,
                       const crypto::SigningKey& signing_key,
                       const crypto::ForwardingKey& forwarding_key,
                       std::uint32_t ingress_latency_us) const {
  SCION_CHECK(!entries_.empty(), "cannot extend an empty PCB");
  AsEntry entry;
  entry.isd_as = as;
  entry.in_if = in_if;
  entry.out_if = out_if;
  entry.ingress_latency_us = ingress_latency_us;
  entry.peers = std::move(peers);
  entry.hop_mac = crypto::hop_mac(forwarding_key, in_if.value(), out_if.value(),
                                  expiry_unix(expiry_), entries_.back().hop_mac);
  // Peer hop fields authorize entering this AS over the peering interface
  // instead of in_if; their MACs chain off the same predecessor.
  for (PeerEntry& p : entry.peers) {
    p.hop_mac = crypto::hop_mac(forwarding_key, p.peer_if.value(), out_if.value(),
                                expiry_unix(expiry_), entries_.back().hop_mac);
  }
  entry.signature = crypto::sign(signing_key, signing_digest(entry));
  return extend(std::move(entry));
}

bool Pcb::verify(crypto::KeyStore& keys) const {
  // One running hasher over the chain: a copy finalized after an entry's
  // unsigned fields is that entry's signing digest.
  crypto::Sha256 h = segment_hasher(timestamp_, expiry_);
  for (const AsEntry& e : entries_) {
    hash_entry_fields(h, e);
    crypto::Sha256 digest = h;
    if (!keys.verify_by(e.isd_as.value(), digest.finalize(), e.signature)) {
      return false;
    }
    h.update(std::span<const std::uint8_t>{e.signature.bytes});
  }
  return !entries_.empty();
}

std::uint64_t Pcb::path_key() const {
  crypto::Sha256 h;
  h.update("scion-mpr/path-key/v1");
  for (const AsEntry& e : entries_) {
    h.update_u64(e.isd_as.value());
    h.update_u16(e.in_if.value());
    h.update_u16(e.out_if.value());
  }
  return h.finalize().prefix64();
}

}  // namespace scion::ctrl
