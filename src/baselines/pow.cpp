#include "baselines/pow.h"

#include <cmath>

#include "hash/sha256.h"
#include "util/serde.h"

namespace wakurln::baselines {

int leading_zero_bits(std::span<const std::uint8_t> digest) {
  int bits = 0;
  for (std::uint8_t byte : digest) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int b = 7; b >= 0; --b) {
      if ((byte >> b) & 1) return bits;
      ++bits;
    }
  }
  return bits;
}

util::Bytes PowEnvelope::serialize() const {
  util::ByteWriter w;
  w.put_u64(nonce);
  w.put_raw(payload);
  return w.take();
}

std::optional<PowEnvelope> PowEnvelope::deserialize(std::span<const std::uint8_t> data) {
  if (data.size() < 8) return std::nullopt;
  try {
    util::ByteReader r(data);
    PowEnvelope env;
    env.nonce = r.get_u64();
    const auto rest = r.get_raw(r.remaining());
    env.payload.assign(rest.begin(), rest.end());
    return env;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

std::optional<util::SharedBytes> PowEnvelope::payload_view(
    const util::SharedBytes& data) {
  constexpr std::size_t kNonceBytes = sizeof(std::uint64_t);
  if (data.size() < kNonceBytes) return std::nullopt;
  return data.slice(kNonceBytes, data.size() - kNonceBytes);
}

namespace {
hash::Digest seal_digest(const PowEnvelope& env) {
  util::ByteWriter w;
  w.put_u64(env.nonce);
  w.put_raw(env.payload);
  return hash::Sha256::digest(w.data());
}
}  // namespace

PowEnvelope pow_seal(util::Bytes payload, int difficulty_bits) {
  PowEnvelope env;
  env.payload = std::move(payload);
  while (leading_zero_bits(seal_digest(env)) < difficulty_bits) {
    ++env.nonce;
  }
  return env;
}

bool pow_verify(const PowEnvelope& envelope, int difficulty_bits) {
  return leading_zero_bits(seal_digest(envelope)) >= difficulty_bits;
}

double expected_hashes(int difficulty_bits) {
  return std::pow(2.0, difficulty_bits);
}

double expected_seal_seconds(int difficulty_bits,
                             const zksnark::DeviceProfile& device) {
  return expected_hashes(difficulty_bits) / device.hashes_per_second;
}

std::uint64_t sampled_seal_hashes(int difficulty_bits, util::Rng& rng) {
  // Geometric with success probability p = 2^-bits, sampled via the
  // inverse-CDF of the exponential approximation.
  const double mean = expected_hashes(difficulty_bits);
  const double sample = rng.exponential(mean);
  return sample < 1.0 ? 1 : static_cast<std::uint64_t>(sample);
}

gossipsub::GossipSubRouter::Validator make_pow_validator(int difficulty_bits) {
  return [difficulty_bits](sim::NodeId, const gossipsub::GsMessage& msg) {
    const auto env = PowEnvelope::deserialize(msg.data);
    if (!env || !pow_verify(*env, difficulty_bits)) {
      return gossipsub::Validation::kReject;
    }
    return gossipsub::Validation::kAccept;
  };
}

}  // namespace wakurln::baselines
