#include <gtest/gtest.h>

#include <vector>

#include "core/pcb.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kDomain = 77;

struct PcbFixture : ::testing::Test {
  crypto::KeyStore keys{kDomain};
  IsdAsId origin = IsdAsId::make(1, 10);
  IsdAsId middle = IsdAsId::make(1, 20);
  IsdAsId last = IsdAsId::make(2, 30);
  TimePoint t0 = TimePoint::origin() + Duration::minutes(5);
  Duration lifetime = Duration::hours(6);

  crypto::SigningKey sk(IsdAsId as) { return keys.key_for(as.value()); }
  crypto::ForwardingKey fk(IsdAsId as) {
    return crypto::ForwardingKey::derive(as.value(), kDomain);
  }

  Pcb make_chain() {
    const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
    const Pcb p1 = p0.extend_signed(middle, IfId{1}, IfId{2}, {}, sk(middle), fk(middle));
    return p1.extend_signed(last, IfId{4}, IfId{5}, {}, sk(last), fk(last));
  }
};

/// Reference for the cached Pcb::wire_size(): the per-entry sum it is
/// defined by.
util::Bytes reference_wire_size(const Pcb& pcb) {
  std::size_t size = kPcbHeaderBytes;
  for (const AsEntry& e : pcb.entries()) {
    size += kAsEntryFixedBytes + crypto::kSignatureBytes +
            e.peers.size() * kPeerEntryBytes;
    if (pcb.carries_latency()) size += kLatencyMetadataBytes;
  }
  return util::Bytes{size};
}

TEST_F(PcbFixture, OriginateFields) {
  const Pcb pcb = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  EXPECT_EQ(pcb.origin(), origin);
  EXPECT_EQ(pcb.timestamp(), t0);
  EXPECT_EQ(pcb.expiry(), t0 + lifetime);
  EXPECT_EQ(pcb.lifetime(), lifetime);
  EXPECT_EQ(pcb.hops(), 1u);
  ASSERT_EQ(pcb.entries().size(), 1u);
  EXPECT_EQ(pcb.entries()[0].in_if, topo::kNoInterface);
  EXPECT_EQ(pcb.entries()[0].out_if, IfId{3});
}

TEST_F(PcbFixture, AgeAndExpiry) {
  const Pcb pcb = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  const TimePoint later = t0 + Duration::hours(2);
  EXPECT_EQ(pcb.age(later), Duration::hours(2));
  EXPECT_EQ(pcb.remaining_lifetime(later), Duration::hours(4));
  EXPECT_FALSE(pcb.expired(later));
  EXPECT_TRUE(pcb.expired(t0 + lifetime));
}

TEST_F(PcbFixture, ExtendAppendsAndPreservesTimestamps) {
  const Pcb pcb = make_chain();
  EXPECT_EQ(pcb.hops(), 3u);
  EXPECT_EQ(pcb.origin(), origin);
  EXPECT_EQ(pcb.timestamp(), t0);
  EXPECT_EQ(pcb.entries()[1].isd_as, middle);
  EXPECT_EQ(pcb.entries()[2].out_if, IfId{5});
}

TEST_F(PcbFixture, ContainsAs) {
  const Pcb pcb = make_chain();
  EXPECT_TRUE(pcb.contains_as(origin));
  EXPECT_TRUE(pcb.contains_as(middle));
  EXPECT_FALSE(pcb.contains_as(IsdAsId::make(9, 9)));
}

TEST_F(PcbFixture, WireSizeFollowsLayout) {
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  EXPECT_EQ(p0.wire_size(),
            util::Bytes{kPcbHeaderBytes + kAsEntryFixedBytes +
                        crypto::kSignatureBytes});
  const Pcb p1 = p0.extend_signed(middle, IfId{1}, IfId{2}, {}, sk(middle), fk(middle));
  EXPECT_EQ(p1.wire_size(),
            p0.wire_size() + util::Bytes{kAsEntryFixedBytes +
                                         crypto::kSignatureBytes});

  std::vector<PeerEntry> peers(2);
  peers[0].peer_as = last;
  peers[1].peer_as = origin;
  const Pcb p2 = p1.extend_signed(last, IfId{4}, IfId{5}, peers, sk(last), fk(last));
  EXPECT_EQ(p2.wire_size(),
            p1.wire_size() + util::Bytes{kAsEntryFixedBytes +
                                         crypto::kSignatureBytes +
                                         2 * kPeerEntryBytes});
}

TEST_F(PcbFixture, CachedWireSizeMatchesPerEntrySum) {
  std::vector<PeerEntry> peers(2);
  peers[0].peer_as = IsdAsId::make(3, 40);
  peers[1].peer_as = IsdAsId::make(3, 41);
  std::vector<Pcb> pcbs;
  // Signed, with and without peers.
  pcbs.push_back(Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin)));
  pcbs.push_back(pcbs.back().extend_signed(middle, IfId{1}, IfId{2}, peers,
                                           sk(middle), fk(middle)));
  pcbs.push_back(pcbs.back().extend_signed(last, IfId{4}, IfId{5}, {}, sk(last), fk(last)));
  // Unsigned, with peers.
  pcbs.push_back(Pcb::originate_unsigned(origin, IfId{3}, t0, lifetime));
  pcbs.push_back(pcbs.back().extend_unsigned(middle, IfId{1}, IfId{2}, peers));
  // Latency extension on the origin PCB, as the beacon server enables it,
  // inherited by extensions.
  Pcb with_latency = Pcb::originate_unsigned(origin, IfId{3}, t0, lifetime);
  with_latency.enable_latency_extension();
  pcbs.push_back(with_latency);
  pcbs.push_back(with_latency.extend_unsigned(middle, IfId{1}, IfId{2}, peers, 700));
  // Enabled on a multi-hop PCB, then again: the second call changes nothing.
  Pcb late = pcbs[4];
  late.enable_latency_extension();
  pcbs.push_back(late);
  late.enable_latency_extension();
  pcbs.push_back(late);
  pcbs.push_back(late.extend_unsigned(last, IfId{4}, IfId{5}, {}, 900));
  for (std::size_t i = 0; i < pcbs.size(); ++i) {
    EXPECT_EQ(pcbs[i].wire_size(), reference_wire_size(pcbs[i])) << "case " << i;
  }
  EXPECT_EQ(pcbs[8].wire_size(), pcbs[7].wire_size());
}

TEST_F(PcbFixture, ExtendReservesExactlyTheNewEntry) {
  const Pcb pcb = make_chain();
  EXPECT_EQ(pcb.entries().capacity(), pcb.entries().size());
}

TEST_F(PcbFixture, VerifyAcceptsChain) {
  EXPECT_TRUE(make_chain().verify(keys));
}

TEST_F(PcbFixture, VerifyRejectsWrongKeyDomain) {
  const Pcb pcb = make_chain();
  crypto::KeyStore other{kDomain + 1};
  EXPECT_FALSE(pcb.verify(other));
}

TEST_F(PcbFixture, VerifyRejectsTamperedInterface) {
  Pcb pcb = make_chain();
  // Re-extend with a modified middle entry: simulate tampering by building
  // a PCB whose middle interface was altered after signing.
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  AsEntry forged;
  forged.isd_as = middle;
  forged.in_if = IfId{1};
  forged.out_if = IfId{99};  // altered
  // Copy the legitimate signature from the honest chain.
  forged.signature = pcb.entries()[1].signature;
  forged.hop_mac = pcb.entries()[1].hop_mac;
  const Pcb tampered = p0.extend(forged);
  EXPECT_FALSE(tampered.verify(keys));
}

TEST_F(PcbFixture, VerifyRejectsRemovedMiddleEntry) {
  const Pcb pcb = make_chain();
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  // Splice the last entry directly after the origin (cutting out middle).
  const Pcb spliced = p0.extend(pcb.entries()[2]);
  EXPECT_FALSE(spliced.verify(keys));
}

TEST_F(PcbFixture, VerifyRejectsTamperingAtEveryPosition) {
  std::vector<IsdAsId> ases;
  for (std::uint64_t i = 0; i < 6; ++i) ases.push_back(IsdAsId::make(1, 100 + i));
  Pcb honest = Pcb::originate(ases[0], IfId{1}, t0, lifetime, sk(ases[0]), fk(ases[0]));
  for (std::size_t i = 1; i < ases.size(); ++i) {
    honest = honest.extend_signed(ases[i], static_cast<IfId>(2 * i),
                                  static_cast<IfId>(2 * i + 1), {}, sk(ases[i]),
                                  fk(ases[i]));
  }
  ASSERT_TRUE(honest.verify(keys));
  const std::vector<AsEntry>& entries = honest.entries();

  // The first `length` entries of `honest`, with entry `pos` passed
  // through `tamper`. Only originate() makes origin entries, so position 0
  // is forged by signing it with another AS's key instead.
  const auto rebuild = [&](std::size_t pos, std::size_t length, auto tamper) {
    Pcb out = Pcb::originate(ases[0], IfId{1}, t0, lifetime,
                             sk(pos == 0 ? ases[1] : ases[0]), fk(ases[0]));
    for (std::size_t i = 1; i < length; ++i) {
      AsEntry e = entries[i];
      if (i == pos) tamper(e);
      out = out.extend(std::move(e));
    }
    return out;
  };
  EXPECT_TRUE(rebuild(entries.size(), entries.size(), [](AsEntry&) {}).verify(keys))
      << "an untampered rebuild must verify";
  // Tampered mid-chain, and as the last entry, where no later signature
  // covers it.
  for (std::size_t pos = 0; pos < entries.size(); ++pos) {
    for (const std::size_t length : {entries.size(), pos + 1}) {
      EXPECT_FALSE(rebuild(pos, length, [](AsEntry& e) { e.signature.bytes[0] ^= 1; })
                       .verify(keys))
          << "signature at position " << pos << " of " << length;
      EXPECT_FALSE(rebuild(pos, length, [](AsEntry& e) { e.hop_mac[0] ^= 1; })
                       .verify(keys))
          << "hop field at position " << pos << " of " << length;
      EXPECT_FALSE(rebuild(pos, length, [](AsEntry& e) { e.ingress_latency_us += 1; })
                       .verify(keys))
          << "latency at position " << pos << " of " << length;
    }
  }
}

TEST_F(PcbFixture, PathKeyIgnoresTimestamps) {
  const Pcb a = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  const Pcb b = Pcb::originate(origin, IfId{3}, t0 + Duration::minutes(10), lifetime,
                               sk(origin), fk(origin));
  EXPECT_EQ(a.path_key(), b.path_key());
}

TEST_F(PcbFixture, PathKeyDistinguishesPathsAndInterfaces) {
  const Pcb a = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  const Pcb b = Pcb::originate(origin, IfId{4}, t0, lifetime, sk(origin), fk(origin));
  EXPECT_NE(a.path_key(), b.path_key());
  const Pcb c = a.extend_signed(middle, IfId{1}, IfId{2}, {}, sk(middle), fk(middle));
  EXPECT_NE(a.path_key(), c.path_key());
}

TEST_F(PcbFixture, UnsignedVariantsMatchWireSizeOfSigned) {
  const Pcb signed_pcb = make_chain();
  const Pcb u0 = Pcb::originate_unsigned(origin, IfId{3}, t0, lifetime);
  const Pcb u1 = u0.extend_unsigned(middle, IfId{1}, IfId{2}, {});
  const Pcb u2 = u1.extend_unsigned(last, IfId{4}, IfId{5}, {});
  EXPECT_EQ(u2.wire_size(), signed_pcb.wire_size());
  EXPECT_EQ(u2.path_key(), signed_pcb.path_key());
  EXPECT_FALSE(u2.verify(keys)) << "zeroed signatures must not verify";
}

TEST_F(PcbFixture, PeerEntryMacsChainFromPredecessor) {
  const Pcb p0 = Pcb::originate(origin, IfId{3}, t0, lifetime, sk(origin), fk(origin));
  std::vector<PeerEntry> peers(1);
  peers[0].peer_as = last;
  peers[0].peer_if = IfId{9};
  const Pcb p1 = p0.extend_signed(middle, IfId{1}, IfId{2}, peers, sk(middle), fk(middle));
  const auto& entry = p1.entries()[1];
  ASSERT_EQ(entry.peers.size(), 1u);
  const crypto::HopMac expected = crypto::hop_mac(
      fk(middle), 9, 2,
      static_cast<std::uint32_t>(p1.expiry().ns() / 1'000'000'000),
      p0.entries()[0].hop_mac);
  EXPECT_EQ(entry.peers[0].hop_mac, expected);
}

}  // namespace
}  // namespace scion::ctrl
