#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "crypto/hopfield_mac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"

namespace scion::crypto {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// --- SHA-256 against FIPS 180-4 / NIST test vectors --------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.update(std::string_view{&c, 1});
  EXPECT_EQ(h.finalize(), sha256(msg));
}

TEST(Sha256, IntegerUpdatesAreBigEndian) {
  Sha256 a;
  a.update_u32(0x01020304);
  const std::uint8_t raw[] = {1, 2, 3, 4};
  Sha256 b;
  b.update(std::span<const std::uint8_t>{raw, 4});
  EXPECT_EQ(a.finalize(), b.finalize());
}

TEST(Sha256, Prefix64Stable) {
  const Sha256Digest d = sha256("abc");
  EXPECT_EQ(d.prefix64(), sha256("abc").prefix64());
  EXPECT_NE(d.prefix64(), sha256("abd").prefix64());
}

// Lengths around the padding boundaries: 55 bytes leave exactly room for
// 0x80 and the length, 56-63 push the length into a second block, 64 fills
// a block. Expected values from python3 hashlib.sha256(b"a" * n).
TEST(Sha256, PaddingBoundaries) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, hex] : cases) {
    EXPECT_EQ(sha256(std::string(n, 'a')).hex(), hex) << n << " bytes";
  }
}

// --- HMAC-SHA-256 against RFC 4231 --------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const auto data = bytes("Hi There");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const auto key = bytes("Jefe");
  const auto data = bytes("what do ya want for nothing?");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const auto data =
      bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(hmac_sha256(key, data).hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- Signature model -----------------------------------------------------------

TEST(Signature, SignVerifyRoundTrip) {
  const SigningKey key = SigningKey::derive(42, 1);
  const auto data = bytes("path segment");
  const Signature sig = sign(key, data);
  EXPECT_TRUE(verify(key, data, sig));
}

TEST(Signature, WireSizeMatchesEcdsaP384) {
  EXPECT_EQ(kSignatureBytes, 96u);
  EXPECT_EQ(sizeof(Signature::bytes), 96u);
}

TEST(Signature, TamperedDataRejected) {
  const SigningKey key = SigningKey::derive(42, 1);
  const Signature sig = sign(key, bytes("original"));
  EXPECT_FALSE(verify(key, bytes("originaL"), sig));
}

TEST(Signature, TamperedSignatureRejected) {
  const SigningKey key = SigningKey::derive(42, 1);
  Signature sig = sign(key, bytes("data"));
  sig.bytes[17] ^= 0x01;
  EXPECT_FALSE(verify(key, bytes("data"), sig));
}

TEST(Signature, WrongSignerRejected) {
  const SigningKey alice = SigningKey::derive(1, 7);
  const SigningKey bob = SigningKey::derive(2, 7);
  const Signature sig = sign(alice, bytes("data"));
  EXPECT_FALSE(verify(bob, bytes("data"), sig));
}

TEST(Signature, MatchesHmacCounterExpansion) {
  // The signature model spelled out: block i of the 96-byte tag is
  // HMAC-SHA-256(key, SHA-256(digest || i)), i = 0, 1, 2.
  std::vector<SigningKey> keys{SigningKey{}, SigningKey::derive(1, 7),
                               SigningKey::derive(42, kDefaultKeyDomainSeed)};
  keys.emplace_back().secret.fill(0xFF);
  for (const SigningKey& key : keys) {
    for (const std::string_view message :
         {"", "path segment", "a message longer than one 64-byte SHA-256 block "
                              "so the digest is not of a single block"}) {
      const Sha256Digest digest = sha256(message);
      Signature expected;
      for (std::uint8_t i = 0; i < 3; ++i) {
        std::vector<std::uint8_t> counted(digest.bytes.begin(),
                                          digest.bytes.end());
        counted.push_back(i);
        const Sha256Digest block =
            hmac_sha256(key.secret, sha256(counted).bytes);
        std::memcpy(expected.bytes.data() + 32 * i, block.bytes.data(), 32);
      }
      EXPECT_EQ(sign(key, digest), expected) << message;
      EXPECT_EQ(sign(key, bytes(message)), expected) << message;
      EXPECT_TRUE(verify(key, digest, expected)) << message;
    }
  }
}

TEST(Signature, DomainSeparatesKeys) {
  const SigningKey a = SigningKey::derive(1, 100);
  const SigningKey b = SigningKey::derive(1, 200);
  EXPECT_NE(a.secret, b.secret);
}

TEST(KeyStore, DeterministicPerSigner) {
  KeyStore store{5};
  const SigningKey& k1 = store.key_for(10);
  KeyStore other{5};
  EXPECT_EQ(k1.secret, other.key_for(10).secret);
  EXPECT_NE(k1.secret, store.key_for(11).secret);
}

TEST(KeyStore, VerifyBySigner) {
  KeyStore store{5};
  const Sha256Digest digest = sha256("hello");
  const Signature sig = sign(store.key_for(7), digest);
  EXPECT_TRUE(store.verify_by(7, digest, sig));
  EXPECT_FALSE(store.verify_by(8, digest, sig));
}

// --- Hop-field MACs --------------------------------------------------------------

TEST(HopMacTest, DeterministicAndKeyed) {
  const ForwardingKey k1 = ForwardingKey::derive(1, 9);
  const ForwardingKey k2 = ForwardingKey::derive(2, 9);
  const HopMac prev{};
  EXPECT_EQ(hop_mac(k1, 1, 2, 1000, prev), hop_mac(k1, 1, 2, 1000, prev));
  EXPECT_NE(hop_mac(k1, 1, 2, 1000, prev), hop_mac(k2, 1, 2, 1000, prev));
}

TEST(HopMacTest, SensitiveToEveryField) {
  const ForwardingKey key = ForwardingKey::derive(1, 9);
  const HopMac prev{};
  const HopMac base = hop_mac(key, 1, 2, 1000, prev);
  EXPECT_NE(base, hop_mac(key, 3, 2, 1000, prev));
  EXPECT_NE(base, hop_mac(key, 1, 4, 1000, prev));
  EXPECT_NE(base, hop_mac(key, 1, 2, 1001, prev));
  HopMac other_prev{};
  other_prev[0] = 1;
  EXPECT_NE(base, hop_mac(key, 1, 2, 1000, other_prev));
}

TEST(HopMacTest, ChainingPreventsSplicing) {
  // MACs computed with different predecessors differ, so splicing a hop
  // field into a different segment invalidates it.
  const ForwardingKey key = ForwardingKey::derive(5, 9);
  const HopMac first = hop_mac(key, 0, 1, 500, HopMac{});
  const HopMac second = hop_mac(key, 2, 3, 500, first);
  const HopMac spliced = hop_mac(key, 2, 3, 500, HopMac{});
  EXPECT_NE(second, spliced);
}

}  // namespace
}  // namespace scion::crypto
