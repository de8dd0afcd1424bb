#pragma once
// Proof-of-Work spam pricing (Whisper / EIP-627 style, paper ref [2]) —
// the first baseline of §I. A sender grinds a nonce until
// SHA-256(nonce || payload) has `difficulty_bits` leading zero bits;
// routers verify with a single hash and drop under-priced messages.
//
// The paper's argument, reproduced in bench_device_overhead and
// bench_spam_protection: at a difficulty low enough for phones, GPU rigs
// spam for free; at a difficulty high enough to price out rigs, phones
// cannot publish at all. RLN costs neither side meaningful computation and
// prices spam with stake instead.

#include <cstdint>
#include <optional>

#include "gossipsub/router.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/shared_bytes.h"
#include "zksnark/cost_model.h"

namespace wakurln::baselines {

/// Number of leading zero bits of a 32-byte digest.
int leading_zero_bits(std::span<const std::uint8_t> digest);

/// A PoW-sealed message: nonce(8 LE) || payload.
struct PowEnvelope {
  std::uint64_t nonce = 0;
  util::Bytes payload;

  util::Bytes serialize() const;
  static std::optional<PowEnvelope> deserialize(std::span<const std::uint8_t> data);
  /// Zero-copy view of the payload inside serialized envelope bytes, or
  /// nullopt exactly where deserialize() fails.
  static std::optional<util::SharedBytes> payload_view(const util::SharedBytes& data);
};

/// Grinds a real nonce (use small difficulties in tests; cost is ~2^bits).
PowEnvelope pow_seal(util::Bytes payload, int difficulty_bits);

/// Verifies the seal with one hash.
bool pow_verify(const PowEnvelope& envelope, int difficulty_bits);

/// Expected number of hash evaluations to seal at `difficulty_bits`.
double expected_hashes(int difficulty_bits);

/// Expected wall-clock sealing time on a device class.
double expected_seal_seconds(int difficulty_bits, const zksnark::DeviceProfile& device);

/// Samples an actual hash count (geometric distribution) without grinding —
/// used by the network benches so high difficulties stay simulatable.
std::uint64_t sampled_seal_hashes(int difficulty_bits, util::Rng& rng);

/// GossipSub validator enforcing the difficulty on a topic.
gossipsub::GossipSubRouter::Validator make_pow_validator(int difficulty_bits);

}  // namespace wakurln::baselines
