#include "crypto/signature.hpp"

#include <cstring>

namespace scion::crypto {

SigningKey SigningKey::derive(SignerId signer, std::uint64_t domain_seed) {
  Sha256 h;
  h.update("scion-mpr/signing-key/v1");
  h.update_u64(domain_seed);
  h.update_u64(signer);
  SigningKey key;
  key.secret = h.finalize().bytes;
  return key;
}

namespace {

Signature expand_to_signature(const SigningKey& key, const Sha256Digest& digest) {
  // Expand 32-byte HMAC outputs to the 96-byte ECDSA-P384 wire size by
  // counter-mode chaining (HKDF-expand style): block i is
  // hmac_sha256(key, sha256(digest || i)). The three HMACs share one key,
  // so its inner and outer pads are absorbed once and the two hashers are
  // copied per block.
  static_assert(sizeof(key.secret) <= 64, "HMAC keys up to one block");
  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < ipad.size(); ++i) {
    const std::uint8_t k = i < key.secret.size() ? key.secret[i] : 0;
    ipad[i] = static_cast<std::uint8_t>(k ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k ^ 0x5c);
  }
  Sha256 inner_keyed;
  inner_keyed.update(std::span<const std::uint8_t>{ipad});
  Sha256 outer_keyed;
  outer_keyed.update(std::span<const std::uint8_t>{opad});

  Signature sig;
  for (std::uint8_t counter = 0; counter < 3; ++counter) {
    Sha256 h;
    h.update(std::span<const std::uint8_t>{digest.bytes});
    const std::uint8_t c = counter;
    h.update(std::span<const std::uint8_t>{&c, 1});
    Sha256 inner = inner_keyed;
    inner.update(std::span<const std::uint8_t>{h.finalize().bytes});
    Sha256 outer = outer_keyed;
    outer.update(std::span<const std::uint8_t>{inner.finalize().bytes});
    const Sha256Digest block = outer.finalize();
    std::memcpy(sig.bytes.data() + counter * 32, block.bytes.data(), 32);
  }
  return sig;
}

}  // namespace

Signature sign(const SigningKey& key, std::span<const std::uint8_t> data) {
  return expand_to_signature(key, sha256(data));
}

Signature sign(const SigningKey& key, const Sha256Digest& digest) {
  return expand_to_signature(key, digest);
}

bool verify(const SigningKey& key, std::span<const std::uint8_t> data,
            const Signature& sig) {
  return sign(key, data) == sig;
}

bool verify(const SigningKey& key, const Sha256Digest& digest,
            const Signature& sig) {
  return sign(key, digest) == sig;
}

const SigningKey& KeyStore::key_for(SignerId signer) {
  auto [it, inserted] = keys_.try_emplace(signer);
  if (inserted) it->second = SigningKey::derive(signer, domain_seed_);
  return it->second;
}

bool KeyStore::verify_by(SignerId signer, const Sha256Digest& digest,
                         const Signature& sig) {
  return verify(key_for(signer), digest, sig);
}

}  // namespace scion::crypto
