// The OTA delta-update subsystem: the patch codec and its pinned wire
// format, chunked resumable transfer, the device image store's
// commit-after-verification discipline, the canary rollout controller, and
// the epochal learning loop end-to-end under compound chaos — where a crash
// mid-patch must leave every device on a consistent, checksum-verified
// version.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ota/patch.hpp"
#include "ota/rollout.hpp"
#include "ota/transfer.hpp"
#include "ota/version.hpp"
#include "sim/fleet.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "wire_mutation.hpp"

namespace iotml::ota {
namespace {

// Two related images: v2 shifts a block, rewrites a run and appends a tail,
// the shape of consecutive compiled-model artifacts after a small retrain.
std::vector<std::uint8_t> image_v1() {
  std::vector<std::uint8_t> v;
  for (int i = 0; i < 300; ++i) v.push_back(static_cast<std::uint8_t>(i * 7 + 3));
  return v;
}

std::vector<std::uint8_t> image_v2() {
  std::vector<std::uint8_t> v = image_v1();
  for (int i = 40; i < 60; ++i) v[static_cast<std::size_t>(i)] = 0xAB;
  v.insert(v.begin() + 150, {1, 2, 3, 4, 5});
  for (int i = 0; i < 30; ++i) v.push_back(static_cast<std::uint8_t>(255 - i));
  return v;
}

// ---- Patch codec -------------------------------------------------------------

TEST(OtaPatch, DiffReconstructsTheTarget) {
  const auto base = image_v1();
  const auto target = image_v2();
  const Patch p = diff(base, target);
  EXPECT_FALSE(p.full_image());
  EXPECT_EQ(p.base_checksum, image_checksum(base));
  EXPECT_EQ(p.target_checksum, image_checksum(target));
  EXPECT_EQ(p.apply(base), target);
  // The delta exploits the shared content: far fewer literal bytes than the
  // target, which is the whole point of shipping patches.
  EXPECT_LT(p.literal_bytes(), target.size() / 4);
}

TEST(OtaPatch, FullImageIsThePatchAgainstEmptyBase) {
  const auto target = image_v2();
  const Patch p = diff({}, target);
  EXPECT_TRUE(p.full_image());
  EXPECT_EQ(p.base_checksum, kEmptyImageChecksum);
  EXPECT_EQ(p.literal_bytes(), target.size());
  EXPECT_EQ(p.apply({}), target);
}

TEST(OtaPatch, EncodeDecodeRoundTripsByteIdentically) {
  const Patch p = diff(image_v1(), image_v2());
  const std::vector<std::uint8_t> wire = p.encode();
  EXPECT_EQ(wire.size(), p.size_bytes());
  const Patch back = Patch::decode(wire);
  EXPECT_EQ(back.encode(), wire);
  EXPECT_EQ(back.apply(image_v1()), image_v2());
}

TEST(OtaPatch, DecodeRejectsTampering) {
  const std::vector<std::uint8_t> wire = diff(image_v1(), image_v2()).encode();
  // Flip one byte anywhere: the FNV trailer (or the magic) must catch it.
  for (const std::size_t at : {std::size_t{0}, std::size_t{9}, wire.size() / 2,
                               wire.size() - 1}) {
    std::vector<std::uint8_t> bad = wire;
    bad[at] ^= 0x40;
    EXPECT_THROW(Patch::decode(bad), InvalidArgument) << "flipped byte " << at;
  }
  std::vector<std::uint8_t> truncated = wire;
  truncated.resize(wire.size() - 3);
  EXPECT_THROW(Patch::decode(truncated), InvalidArgument);
  EXPECT_THROW(Patch::decode({}), InvalidArgument);
}

TEST(OtaPatch, ApplyRefusesWrongBaseAndNeverTearsSilently) {
  const Patch p = diff(image_v1(), image_v2());
  std::vector<std::uint8_t> wrong_base = image_v1();
  wrong_base[0] ^= 1;
  EXPECT_THROW(p.apply(wrong_base), InvalidArgument);
  EXPECT_THROW(p.apply({}), InvalidArgument);
}

// The wire format is pinned: these exact bytes must decode forever.
// Regenerate with IOTML_UPDATE_GOLDEN=1 after an intentional version bump.
TEST(OtaPatch, GoldenWireBytes) {
  const std::string path = std::string(IOTML_GOLDEN_DIR) + "/ota_patch.bin";
  const std::vector<std::uint8_t> wire = diff(image_v1(), image_v2()).encode();
  const char* update = std::getenv("IOTML_UPDATE_GOLDEN");  // NOLINT(concurrency-mt-unsafe)
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
    for (std::uint8_t b : wire) out.put(static_cast<char>(b));
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file; regenerate with IOTML_UPDATE_GOLDEN=1";
  std::vector<std::uint8_t> golden((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  EXPECT_EQ(wire, golden)
      << "patch wire format drifted; if intentional, bump Patch::version "
         "and regenerate with IOTML_UPDATE_GOLDEN=1";
  EXPECT_EQ(Patch::decode(golden).apply(image_v1()), image_v2());
}

// A u32 field of the golden patch inflated to 0xFFFFFFFF past a re-stamped
// trailer must not make decode or apply size a buffer its ops cannot fill.
TEST(OtaPatch, InflatedFieldsDecodeOrThrowInvalidArgument) {
  std::ifstream in(std::string(IOTML_GOLDEN_DIR) + "/ota_patch.bin", std::ios::binary);
  const std::vector<std::uint8_t> golden((std::istreambuf_iterator<char>(in)),
                                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(golden.empty());
  const std::vector<std::uint8_t> base = image_v1();
  EXPECT_EQ(wire_mutation::escapes(golden,
                                   [&](const std::vector<std::uint8_t>& bytes) {
                                     Patch::decode(bytes).apply(base);
                                   }),
            std::vector<std::string>{});
}

// ---- Chunked transfer --------------------------------------------------------

TEST(OtaTransfer, ChunksRoundTripInAnyOrder) {
  const std::vector<std::uint8_t> patch = diff(image_v1(), image_v2()).encode();
  const ChunkedPatch chunked(patch, 16, 7);
  ASSERT_GT(chunked.num_chunks(), 3u);
  EXPECT_EQ(chunked.total_wire_bytes(),
            patch.size() + chunked.num_chunks() * kChunkFramingBytes);

  PatchApplier applier;
  // Deliver in reverse order: reassembly must not care.
  for (std::size_t i = chunked.num_chunks(); i-- > 0;) {
    EXPECT_EQ(applier.accept(chunked.frame(i)), PatchApplier::Accept::kAccepted);
  }
  ASSERT_TRUE(applier.complete());
  EXPECT_EQ(applier.assemble(), patch);
}

TEST(OtaTransfer, CorruptChunkIsRejectedNotStaged) {
  const std::vector<std::uint8_t> patch = diff(image_v1(), image_v2()).encode();
  const ChunkedPatch chunked(patch, 32, 3);
  PatchApplier applier;
  ChunkFrame bad = chunked.frame(1);
  bad.payload[0] ^= 0xFF;
  EXPECT_EQ(applier.accept(bad), PatchApplier::Accept::kChecksumMismatch);
  EXPECT_FALSE(applier.started());  // nothing staged off a corrupt first frame
  // The clean frame still goes through afterwards.
  EXPECT_EQ(applier.accept(chunked.frame(1)), PatchApplier::Accept::kAccepted);
}

TEST(OtaTransfer, DuplicatesAreIdempotent) {
  const std::vector<std::uint8_t> patch = diff({}, image_v1()).encode();
  const ChunkedPatch chunked(patch, 64, 1);
  PatchApplier applier;
  EXPECT_EQ(applier.accept(chunked.frame(0)), PatchApplier::Accept::kAccepted);
  EXPECT_EQ(applier.accept(chunked.frame(0)), PatchApplier::Accept::kDuplicate);
  EXPECT_EQ(applier.verified_chunks(), 1u);
}

TEST(OtaTransfer, ShapeMismatchesAreRejected) {
  const std::vector<std::uint8_t> patch = diff({}, image_v1()).encode();
  const ChunkedPatch chunked(patch, 32, 5);
  const ChunkedPatch other(diff({}, image_v2()).encode(), 32, 6);
  PatchApplier applier;
  ASSERT_EQ(applier.accept(chunked.frame(0)), PatchApplier::Accept::kAccepted);
  // A frame from a different version/transfer shape must not mix in.
  EXPECT_EQ(applier.accept(other.frame(1)), PatchApplier::Accept::kShapeMismatch);
}

// A 1-byte chunk of a 2^32-1-byte patch in 2^32-1 chunks passes every other
// shape check; sized by its count, the staging would take ~100 GiB. Frames
// over the kMaxChunks ceiling are refused before anything is sized, and a
// sender never splits a patch past it.
TEST(OtaTransfer, ChunkCountOverTheCeilingIsRefusedBeforeStaging) {
  auto frame_of = [](std::uint32_t total) {
    ChunkFrame f;
    f.version_id = 1;
    f.total = total;
    f.patch_size = total;  // one byte per chunk
    f.payload = {0x5A};
    f.checksum = fnv1a32(f.payload.data(), f.payload.size());
    return f;
  };
  for (const std::uint32_t total :
       {std::uint32_t{0xFFFFFFFFu}, static_cast<std::uint32_t>(kMaxChunks + 1)}) {
    PatchApplier applier;
    EXPECT_EQ(applier.accept(frame_of(total)), PatchApplier::Accept::kShapeMismatch) << total;
    EXPECT_FALSE(applier.started());
  }
  PatchApplier at_ceiling;
  EXPECT_EQ(at_ceiling.accept(frame_of(static_cast<std::uint32_t>(kMaxChunks))),
            PatchApplier::Accept::kAccepted);
  EXPECT_EQ(at_ceiling.total_chunks(), kMaxChunks);

  EXPECT_EQ(ChunkedPatch(std::vector<std::uint8_t>(kMaxChunks, 1), 1, 1).num_chunks(),
            kMaxChunks);
  EXPECT_THROW(ChunkedPatch(std::vector<std::uint8_t>(kMaxChunks + 1, 1), 1, 1),
               InvalidArgument);
}

TEST(OtaTransfer, ResumesFromExactlyTheMissingChunks) {
  const std::vector<std::uint8_t> patch = diff(image_v1(), image_v2()).encode();
  const ChunkedPatch chunked(patch, 16, 9);
  PatchApplier applier;
  // Interruption: only even chunks arrive before the link dies.
  for (std::size_t i = 0; i < chunked.num_chunks(); i += 2) {
    applier.accept(chunked.frame(i));
  }
  ASSERT_FALSE(applier.complete());
  const std::vector<std::size_t> missing = applier.missing();
  ASSERT_FALSE(missing.empty());
  for (std::size_t i : missing) EXPECT_EQ(i % 2, 1u);  // exactly the odd ones
  for (std::size_t i : missing) applier.accept(chunked.frame(i));
  ASSERT_TRUE(applier.complete());
  EXPECT_TRUE(applier.missing().empty());
  EXPECT_EQ(applier.assemble(), patch);
}

TEST(OtaTransfer, ResetDiscardsStagedStateForReuse) {
  const std::vector<std::uint8_t> patch = diff({}, image_v1()).encode();
  const ChunkedPatch chunked(patch, 16, 2);
  PatchApplier applier;
  applier.accept(chunked.frame(0));
  applier.reset();
  EXPECT_FALSE(applier.started());
  // After the reset the applier accepts a different shape (the full-image
  // fall-back path reuses the same applier).
  const ChunkedPatch full(diff({}, image_v2()).encode(), 48, 3);
  for (std::size_t i = 0; i < full.num_chunks(); ++i) {
    EXPECT_EQ(applier.accept(full.frame(i)), PatchApplier::Accept::kAccepted);
  }
  EXPECT_TRUE(applier.complete());
}

// ---- Version chain and device image store ------------------------------------

TEST(OtaVersion, ChainTracksPromotedHeadsWithMonotoneIds) {
  VersionChain chain;
  EXPECT_EQ(chain.head_id(), 0u);
  EXPECT_EQ(chain.head_checksum(), kEmptyImageChecksum);
  const auto v1 = image_v1();
  const auto v2 = image_v2();
  chain.append(1, image_checksum(v1), static_cast<std::uint32_t>(v1.size()), 100);
  // Id 2 was a rolled-back candidate: never appended, the gap is the record.
  chain.append(3, image_checksum(v2), static_cast<std::uint32_t>(v2.size()), 40);
  EXPECT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.head_id(), 3u);
  EXPECT_EQ(chain.links()[1].base_checksum, image_checksum(v1));
  EXPECT_THROW(chain.append(3, 0, 0, 0), InvalidArgument);  // not monotone
  EXPECT_THROW(chain.append(0, 0, 0, 0), InvalidArgument);  // reserved id
  chain.retire_head();
  EXPECT_EQ(chain.head_id(), 1u);
}

TEST(OtaVersion, StoreCommitsOnlyVerifiedImages) {
  DeviceImageStore store;
  EXPECT_FALSE(store.provisioned());
  EXPECT_EQ(store.current_checksum(), kEmptyImageChecksum);
  const auto v1 = image_v1();
  EXPECT_THROW(store.commit(1, v1, image_checksum(v1) ^ 1), InvalidArgument);
  EXPECT_FALSE(store.provisioned());  // the failed commit changed nothing
  store.commit(1, v1, image_checksum(v1));
  EXPECT_TRUE(store.provisioned());
  EXPECT_EQ(store.current_id(), 1u);
  EXPECT_EQ(store.current_checksum(), image_checksum(v1));
}

TEST(OtaVersion, RollbackRestoresThePreviousBytesExactly) {
  DeviceImageStore store;
  const auto v1 = image_v1();
  const auto v2 = image_v2();
  EXPECT_THROW(store.rollback(), InvalidArgument);  // nothing to go back to
  store.commit(1, v1, image_checksum(v1));
  store.commit(2, v2, image_checksum(v2));
  EXPECT_EQ(store.current_id(), 2u);
  store.rollback();
  EXPECT_EQ(store.current_id(), 1u);
  EXPECT_EQ(store.current_image(), v1);  // byte-for-byte the promoted base
  // Roll forward again: the abandoned image was retained symmetrically.
  store.rollback();
  EXPECT_EQ(store.current_id(), 2u);
  EXPECT_EQ(store.current_image(), v2);
}

// ---- Rollout controller ------------------------------------------------------

TEST(OtaRollout, CanaryCohortIsSeededSortedAndClamped) {
  OtaConfig cfg;
  cfg.canary_fraction = 0.2;
  cfg.min_canary_devices = 2;
  Rng rng_a(42);
  Rng rng_b(42);
  const auto cohort = pick_canaries(50, cfg, rng_a);
  EXPECT_EQ(cohort, pick_canaries(50, cfg, rng_b));  // same seed, same cohort
  EXPECT_EQ(cohort.size(), 10u);
  for (std::size_t i = 1; i < cohort.size(); ++i) {
    EXPECT_LT(cohort[i - 1], cohort[i]);  // ascending, no duplicates
  }
  for (std::uint32_t d : cohort) EXPECT_LT(d, 50u);

  Rng rng_c(7);
  EXPECT_EQ(pick_canaries(3, cfg, rng_c).size(), 2u);  // floor at min_canary
  Rng rng_d(7);
  cfg.min_canary_devices = 10;
  EXPECT_EQ(pick_canaries(4, cfg, rng_d).size(), 4u);  // clamped to the fleet
}

TEST(OtaRollout, JudgePromotesWithinToleranceAndRejectsRegressions) {
  OtaConfig cfg;
  cfg.regression_tolerance = 0.02;
  // 3 devices, pooled: old 70/96, new 69/96 — a regression of ~1%, inside
  // tolerance, promotes.
  std::vector<CanaryProbe> probes = {{0, 32, 24, 23}, {3, 32, 23, 23}, {9, 32, 23, 23}};
  CanaryVerdict v = judge(5, 1, probes, cfg);
  EXPECT_EQ(v.devices_reporting, 3u);
  EXPECT_EQ(v.pooled_rows, 96u);
  EXPECT_TRUE(v.promoted);
  // New model collapses on one cohort member: pooled drop > tolerance.
  probes[0].correct_new = 4;
  v = judge(6, 1, probes, cfg);
  EXPECT_FALSE(v.promoted);
  EXPECT_LT(v.accuracy_new, v.accuracy_old - cfg.regression_tolerance);
}

TEST(OtaRollout, JudgeIsConservativeWithNoEvidence) {
  const CanaryVerdict v = judge(4, 2, {}, OtaConfig{});
  EXPECT_FALSE(v.promoted);  // unreachable cohort must not promote blind
  EXPECT_EQ(v.pooled_rows, 0u);
}

}  // namespace
}  // namespace iotml::ota

// ---- Epochal loop end-to-end -------------------------------------------------

namespace iotml::sim {
namespace {

FleetConfig ota_config(std::size_t devices, std::size_t edges, unsigned seed) {
  FleetConfig config;
  config.devices = devices;
  config.edges = edges;
  config.duration_s = 24.0;
  config.seed = seed;
  // Tight flush cadence: rows reach the core well before the first epoch
  // fires (at duration/4), so epoch 0 genuinely provisions.
  config.device_flush_s = 2.0;
  config.edge_flush_s = 3.0;
  config.ota.enabled = true;
  config.ota.epochs = 3;
  return config;
}

void enable_compound_chaos(FleetConfig& config) {
  config.faults.edge_crashes = 1.0;
  config.faults.edge_downtime_mean_s = 3.0;
  config.faults.device_churns = 5.0;
  config.faults.device_offtime_mean_s = 2.0;
  config.chaos.partitions = 1.0;
  config.chaos.partition_mean_s = 4.0;
  config.chaos.loss_bursts = 1.0;
  config.chaos.burst_drop_prob = 0.4;
  config.chaos.corruption_storms = 1.0;
  config.chaos.storm_corrupt_prob = 0.1;
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.ack_timeout_s = 0.1;
  config.channel.backoff_base_s = 0.05;
  config.channel.backoff_cap_s = 1.0;
  config.channel.max_attempts = 6;
  config.checkpoint_interval_s = 2.0;
  config.device_buffer_rows = 4096;
}

TEST(FleetOta, EpochalLoopProvisionsAndShipsDeltas) {
  FleetSim fleet(ota_config(20, 2, 1234));
  const FleetReport report = fleet.run();
  const OtaSummary& ota = report.deploy.ota;
  ASSERT_TRUE(ota.enabled);
  EXPECT_TRUE(report.rows_conserved());
  ASSERT_EQ(ota.epochs_log.size(), 3u);
  // Epoch 0 provisions the fleet; on a calm network every device converges
  // to the promoted head and verifies.
  EXPECT_EQ(ota.epochs_log[0].outcome, "provision");
  EXPECT_GE(ota.versions_published, 1u);
  EXPECT_TRUE(ota.all_devices_verified);
  EXPECT_EQ(ota.devices_unprovisioned, 0u);
  EXPECT_EQ(ota.devices_on_head, 20u);
  EXPECT_EQ(ota.devices_stuck, 0u);
  // The histogram accounts for every device.
  std::size_t histogram_total = 0;
  for (const auto& [version, count] : ota.version_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, 20u);
  // The whole point: epochal deltas cost less radio than naively
  // re-shipping the full image every epoch.
  EXPECT_GT(ota.full_broadcast_bytes, 0u);
  EXPECT_LT(ota.delta_downlink_bytes, ota.full_broadcast_bytes);
}

TEST(FleetOta, DeltaEpochsShipTheCheaperOfPatchAndImage) {
  FleetSim fleet(ota_config(20, 2, 1234));
  const FleetReport report = fleet.run();
  const OtaSummary& ota = report.deploy.ota;
  bool saw_delta_epoch = false;
  for (const OtaEpochEntry& e : ota.epochs_log) {
    if (e.outcome == "promote" || e.outcome == "rollback") {
      saw_delta_epoch = true;
      // The diff against the promoted head is always computed and ledgered,
      // even when the retrain restructured the tree so much that the delta
      // lost to the full image and was not shipped.
      EXPECT_GT(e.patch_bytes, 0u);
      EXPECT_GT(e.canary_devices, 0u);
      // Whichever payload won, what actually went over the wire per device
      // never exceeds the full-broadcast counterfactual's per-device cost.
      ASSERT_GT(e.canary_devices + e.devices_updated, 0u);
      EXPECT_LE(e.delta_downlink_bytes, e.full_broadcast_bytes)
          << "epoch " << e.epoch;
    }
  }
  EXPECT_TRUE(saw_delta_epoch)
      << "no epoch past provisioning built a canary rollout";
}

// The ISSUE acceptance scenario: a 100-device epochal OTA run under
// compound chaos (partition + edge crashes + device churn + loss bursts +
// corruption storm). Whatever the network does to the chunks — including a
// crash mid-patch — the run must end with the row ledger balanced and every
// device on a consistent, checksum-verified version: torn patches are
// structurally impossible.
TEST(FleetOta, CrashMidPatchLeavesEveryDeviceConsistent) {
  FleetConfig config = ota_config(100, 4, 99);
  enable_compound_chaos(config);
  FleetSim fleet(config);
  const FleetReport report = fleet.run();
  const OtaSummary& ota = report.deploy.ota;
  EXPECT_TRUE(report.rows_conserved());
  EXPECT_TRUE(ota.all_devices_verified);
  std::size_t histogram_total = 0;
  for (const auto& [version, count] : ota.version_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, 100u);
  // Chaos manifests as resume traffic, not corruption of installed images.
  EXPECT_GT(ota.chunks_sent, ota.chunks_delivered);
  EXPECT_GT(ota.resume_rounds, 0u);
  // The deploy ledger still shows the delta savings under fire.
  EXPECT_LT(ota.delta_downlink_bytes, ota.full_broadcast_bytes);
}

TEST(FleetOta, ReportIsDeterministicPerSeed) {
  FleetConfig config = ota_config(20, 2, 777);
  enable_compound_chaos(config);
  FleetSim fleet_a(config);
  FleetSim fleet_b(config);
  const std::string json_a = fleet_a.run().to_json();
  const std::string json_b = fleet_b.run().to_json();
  EXPECT_EQ(json_a, json_b);
  EXPECT_NE(json_a.find("\"ota\""), std::string::npos);
}

TEST(FleetOta, DisabledOtaLeavesTheLegacyReportShape) {
  FleetConfig config;
  config.devices = 8;
  config.edges = 2;
  config.duration_s = 10.0;
  config.seed = 5;
  FleetSim fleet(config);
  const FleetReport report = fleet.run();
  EXPECT_FALSE(report.deploy.ota.enabled);
  // No deploy, no OTA: the legacy report carries no deploy block at all.
  EXPECT_EQ(report.to_json().find("\"ota\""), std::string::npos);
}

}  // namespace
}  // namespace iotml::sim
