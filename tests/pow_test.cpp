#include <gtest/gtest.h>

#include "baselines/pow.h"
#include "hash/sha256.h"

namespace wakurln::baselines {
namespace {

TEST(LeadingZeroBitsTest, CountsCorrectly) {
  std::array<std::uint8_t, 32> digest{};
  digest.fill(0xff);
  EXPECT_EQ(leading_zero_bits(digest), 0);
  digest[0] = 0x7f;
  EXPECT_EQ(leading_zero_bits(digest), 1);
  digest[0] = 0x00;
  digest[1] = 0x80;
  EXPECT_EQ(leading_zero_bits(digest), 8);
  digest[1] = 0x01;
  EXPECT_EQ(leading_zero_bits(digest), 15);
  digest.fill(0x00);
  EXPECT_EQ(leading_zero_bits(digest), 256);
}

TEST(PowEnvelopeTest, SerializationRoundTrip) {
  PowEnvelope env;
  env.nonce = 0xdeadbeef12345678ULL;
  env.payload = util::to_bytes("hello");
  const auto wire = env.serialize();
  const auto parsed = PowEnvelope::deserialize(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->nonce, env.nonce);
  EXPECT_EQ(parsed->payload, env.payload);
}

TEST(PowEnvelopeTest, DeserializeRejectsTooShort) {
  const util::Bytes tiny = {1, 2, 3};
  EXPECT_FALSE(PowEnvelope::deserialize(tiny).has_value());
}

TEST(PowEnvelopeTest, PayloadViewMatchesDeserializeWithoutCopying) {
  PowEnvelope env;
  env.nonce = 7;
  env.payload = util::to_bytes("payload");
  const util::SharedBytes wire(env.serialize());
  const auto view = PowEnvelope::payload_view(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(*view, PowEnvelope::deserialize(wire)->payload);
  EXPECT_EQ(view->data(), wire.data() + 8);  // a sub-view, not a copy
  // An empty payload is still an envelope; fewer than 8 bytes is not.
  EXPECT_TRUE(PowEnvelope::payload_view(util::SharedBytes(util::Bytes(8, 0)))->empty());
  EXPECT_FALSE(PowEnvelope::payload_view(util::SharedBytes(util::Bytes(7, 0))));
}

TEST(PowSealTest, SealedEnvelopeVerifies) {
  const auto env = pow_seal(util::to_bytes("message"), 10);
  EXPECT_TRUE(pow_verify(env, 10));
  EXPECT_TRUE(pow_verify(env, 5));  // stronger seal satisfies weaker target
}

TEST(PowSealTest, TamperedPayloadFailsVerification) {
  auto env = pow_seal(util::to_bytes("message"), 12);
  env.payload[0] ^= 0x01;
  EXPECT_FALSE(pow_verify(env, 12));
}

TEST(PowSealTest, HigherDifficultyRejectsWeakSeal) {
  const auto env = pow_seal(util::to_bytes("m"), 4);
  // With overwhelming probability a 4-bit seal does not meet 30 bits.
  EXPECT_FALSE(pow_verify(env, 30));
}

TEST(PowCostTest, ExpectedHashesIsExponential) {
  EXPECT_DOUBLE_EQ(expected_hashes(0), 1.0);
  EXPECT_DOUBLE_EQ(expected_hashes(10), 1024.0);
  EXPECT_DOUBLE_EQ(expected_hashes(20) / expected_hashes(10), 1024.0);
}

TEST(PowCostTest, PhoneVsGpuAsymmetry) {
  // The §I asymmetry: a difficulty cheap for a GPU rig is crippling for a
  // phone. At 24 bits the phone needs ~8.4 s per message; the rig ~3 ms.
  const double phone = expected_seal_seconds(24, zksnark::DeviceProfile::iphone8());
  const double rig = expected_seal_seconds(24, zksnark::DeviceProfile::gpu_rig());
  EXPECT_GT(phone, 5.0);
  EXPECT_LT(rig, 0.01);
  EXPECT_GT(phone / rig, 1000.0);
}

TEST(PowCostTest, SampledHashesHasRightMean) {
  util::Rng rng(4242);
  const int bits = 12;
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(sampled_seal_hashes(bits, rng));
  }
  EXPECT_NEAR(total / n / expected_hashes(bits), 1.0, 0.05);
}

TEST(PowValidatorTest, AcceptsSealedRejectsUnsealed) {
  const auto validator = make_pow_validator(8);
  const auto sealed = pow_seal(util::to_bytes("ok"), 8);
  const auto good =
      gossipsub::GsMessage::create("t", sealed.serialize());
  EXPECT_EQ(validator(0, good), gossipsub::Validation::kAccept);

  PowEnvelope unsealed;
  unsealed.nonce = 0;
  unsealed.payload = util::to_bytes("spam-without-work");
  const auto bad = gossipsub::GsMessage::create("t", unsealed.serialize());
  // nonce 0 almost surely fails 8 bits for this payload; if not, the seal
  // is legitimately valid and the validator must accept.
  const auto verdict = validator(0, bad);
  if (pow_verify(unsealed, 8)) {
    EXPECT_EQ(verdict, gossipsub::Validation::kAccept);
  } else {
    EXPECT_EQ(verdict, gossipsub::Validation::kReject);
  }
}

TEST(PowValidatorTest, RejectsGarbageFrames) {
  const auto validator = make_pow_validator(8);
  const auto garbage = gossipsub::GsMessage::create("t", util::Bytes{1, 2});
  EXPECT_EQ(validator(0, garbage), gossipsub::Validation::kReject);
}

}  // namespace
}  // namespace wakurln::baselines
