// The crash-safety contract of the persistent cache tier (src/persist):
//
//   * round trips are bit-identical — a warm-restarted service recommends
//     exactly what the cold one did, at any thread count;
//   * corruption is survivable — every mutated snapshot (fuzzed byte flips,
//     truncations, the seed-derived SnapshotFaultInjector's torn writes and
//     stale version stamps) yields a typed LoadReport skip and a service
//     that still configures cold, never a crash;
//   * the cache stays bounded (one LRU bound over both artifact kinds) and
//     the persister degrades gracefully when the disk does (failed writes are
//     counted and dropped, requests are never blocked or failed by them).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "engine/cluster_cache.h"
#include "engine/config_service.h"
#include "model/gpt_zoo.h"
#include "persist/codecs.h"
#include "persist/faults.h"
#include "persist/format.h"
#include "persist/store.h"

using namespace pipette;
namespace fs = std::filesystem;

namespace {

cluster::Topology small_cluster(std::uint64_t seed = 2024) {
  return cluster::Topology(cluster::mid_range_cluster(2), cluster::HeterogeneityOptions{}, seed);
}

/// Fast budgets with an iteration-capped SA pass — determinism holds for any
/// thread count only when SA stops on iterations, not wall time.
core::PipetteOptions fast_options() {
  core::PipetteOptions opt;
  opt.sa.max_iters = 1200;
  opt.memory_training.hidden = {48, 48};
  opt.memory_training.train.iters = 2500;
  opt.memory_training.max_profile_nodes = 2;
  opt.memory_training.profile_global_batches = {128};
  opt.memory_training.soft_margin = 0.2;
  return opt;
}

engine::ConfigServiceOptions service_options(int threads, const std::string& snapshot_dir = "") {
  engine::ConfigServiceOptions so;
  so.threads = threads;
  so.pipette = fast_options();
  so.cache.snapshot_dir = snapshot_dir;
  return so;
}

void expect_identical(const core::ConfiguratorResult& a, const core::ConfiguratorResult& b) {
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.predicted_s, b.predicted_s);
  EXPECT_EQ(a.mapping.has_value(), b.mapping.has_value());
  if (a.mapping && b.mapping) {
    EXPECT_EQ(*a.mapping, *b.mapping);
  }
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].cand, b.ranking[i].cand) << "rank " << i;
    EXPECT_DOUBLE_EQ(a.ranking[i].predicted_s, b.ranking[i].predicted_s) << "rank " << i;
  }
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  EXPECT_EQ(a.candidates_rejected_oom, b.candidates_rejected_oom);
}

/// A scratch directory that cleans up after itself.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

void write_raw(const fs::path& p, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(p.string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

int count_skips(const persist::LoadReport& r, persist::SkipReason reason) {
  int n = 0;
  for (const auto& s : r.skipped) {
    if (s.reason == reason) ++n;
  }
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(PersistFormat, Crc32cMatchesKnownVector) {
  // The canonical CRC32C check vector (RFC 3720 appendix): "123456789".
  const unsigned char msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(persist::crc32c(msg, sizeof msg), 0xe3069283u);
  // Chaining two spans equals one pass over their concatenation.
  const std::uint32_t head = persist::crc32c(msg, 4);
  EXPECT_EQ(persist::crc32c(msg + 4, 5, head), 0xe3069283u);
}

TEST(PersistFormat, FrameAndParseRoundTrip) {
  const std::vector<unsigned char> payload = {1, 2, 3, 250, 251, 252};
  const auto file = persist::frame_record(persist::RecordKind::kMemory, 0xdeadbeefull, payload);
  EXPECT_EQ(file.size(), persist::kHeaderBytes + payload.size());
  const auto view = persist::parse_record(file);
  EXPECT_EQ(view.kind, persist::RecordKind::kMemory);
  EXPECT_EQ(view.key, 0xdeadbeefull);
  ASSERT_EQ(view.payload_size, payload.size());
  EXPECT_EQ(std::vector<unsigned char>(view.payload, view.payload + view.payload_size), payload);
}

TEST(PersistFormat, ParseRejectsEveryHeaderViolation) {
  const auto good =
      persist::frame_record(persist::RecordKind::kProfile, 7, std::vector<unsigned char>(64, 9));

  auto expect_reason = [](std::vector<unsigned char> file, const std::string& prefix) {
    try {
      persist::parse_record(file);
      FAIL() << "expected DecodeError with prefix '" << prefix << "'";
    } catch (const persist::DecodeError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u) << e.what();
    }
  };

  auto bad = good;
  bad[0] ^= 0xff;  // magic
  expect_reason(bad, "bad magic");

  bad = good;
  bad[8] += 1;  // version
  expect_reason(bad, "version mismatch");

  bad = good;
  bad.resize(persist::kHeaderBytes - 1);  // short header
  expect_reason(bad, "truncated");

  bad = good;
  bad.resize(bad.size() - 3);  // payload shorter than declared
  expect_reason(bad, "truncated");

  bad = good;
  bad.back() ^= 0x10;  // payload bit flip
  expect_reason(bad, "crc mismatch");

  // The CRC protects the key field too: a flipped key bit must not deliver a
  // valid payload under the wrong cache slot.
  bad = good;
  bad[16] ^= 0x01;
  expect_reason(bad, "crc mismatch");

  bad = good;
  bad[12] = 0x7f;  // kind out of range (checked before the CRC)
  expect_reason(bad, "unknown record kind");
}

TEST(PersistFormat, AtomicWriteLeavesNoTempOnSuccess) {
  TempDir dir("pipette_persist_atomic");
  const auto p = dir.path / "rec.snap";
  const std::vector<unsigned char> bytes(1000, 42);
  persist::write_file_atomic(p.string(), bytes);
  EXPECT_TRUE(fs::exists(p));
  EXPECT_FALSE(fs::exists(dir.path / "rec.snap.tmp"));
  EXPECT_EQ(persist::read_file(p.string()), bytes);
  // Overwrite is atomic too (same tmp+rename path).
  const std::vector<unsigned char> bytes2(500, 7);
  persist::write_file_atomic(p.string(), bytes2);
  EXPECT_EQ(persist::read_file(p.string()), bytes2);
}

// ---------------------------------------------------------------------------
// Codecs: bit-identical round trips
// ---------------------------------------------------------------------------

TEST(PersistCodecs, ProfileRoundTripIsBitIdentical) {
  const auto topo = small_cluster();
  cluster::ProfileOptions po;
  const auto profile = cluster::profile_network(topo, po);

  const auto bytes = persist::encode_profile(profile);
  const auto decoded = persist::decode_profile(bytes.data(), bytes.size());
  // Bit identity via re-encode: every field (bandwidths, wall time, the full
  // sanitize report) serializes back to the exact same bytes.
  EXPECT_EQ(persist::encode_profile(decoded), bytes);
  EXPECT_EQ(decoded.bw.num_nodes(), profile.bw.num_nodes());
  EXPECT_EQ(decoded.bw.gpus_per_node(), profile.bw.gpus_per_node());
  ASSERT_EQ(decoded.bw.inter_readings().size(), profile.bw.inter_readings().size());
  for (std::size_t i = 0; i < profile.bw.inter_readings().size(); ++i) {
    EXPECT_EQ(decoded.bw.inter_readings()[i], profile.bw.inter_readings()[i]) << "inter " << i;
  }
  ASSERT_EQ(decoded.bw.intra_readings().size(), profile.bw.intra_readings().size());
  for (std::size_t i = 0; i < profile.bw.intra_readings().size(); ++i) {
    EXPECT_EQ(decoded.bw.intra_readings()[i], profile.bw.intra_readings()[i]) << "intra " << i;
  }
  EXPECT_EQ(decoded.wall_time_s, profile.wall_time_s);
  EXPECT_EQ(decoded.num_measurements, profile.num_measurements);
  EXPECT_EQ(decoded.sanitize.total_readings, profile.sanitize.total_readings);
}

TEST(PersistCodecs, MemoryEstimatorRoundTripIsBitIdentical) {
  const auto topo = small_cluster();
  const auto opt = fast_options();
  const auto est = estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(),
                                                                     opt.memory_training);

  const auto bytes = persist::encode_memory(est);
  const auto decoded = persist::decode_memory(bytes.data(), bytes.size());
  EXPECT_EQ(persist::encode_memory(decoded), bytes);
  EXPECT_EQ(decoded.training_digest(), est.training_digest());
  EXPECT_EQ(decoded.soft_margin(), est.soft_margin());
  EXPECT_EQ(decoded.dataset_size(), est.dataset_size());
  EXPECT_EQ(decoded.train_mape_percent(), est.train_mape_percent());
}

TEST(PersistCodecs, DecodersRejectStructurallyInvalidArtifacts) {
  // A payload whose bytes are internally consistent but violate an artifact
  // invariant must be rejected by the codec's second wall, not accepted.
  const auto topo = small_cluster();
  cluster::ProfileOptions po;
  auto profile = cluster::profile_network(topo, po);
  auto bytes = persist::encode_profile(profile);
  // Payload layout starts: i32 num_nodes. A negative node count is
  // structural nonsense even though every byte parses.
  bytes[0] = 0xff;
  bytes[1] = 0xff;
  bytes[2] = 0xff;
  bytes[3] = 0xff;
  EXPECT_THROW(persist::decode_profile(bytes.data(), bytes.size()), persist::DecodeError);

  EXPECT_THROW(persist::decode_memory(bytes.data(), bytes.size()), persist::DecodeError);
}

// ---------------------------------------------------------------------------
// Store: tolerant directory loads
// ---------------------------------------------------------------------------

TEST(PersistStore, LoadClassifiesEveryCorruptionKind) {
  TempDir dir("pipette_persist_classify");
  const std::vector<unsigned char> payload(128, 5);

  // One clean record the loader must still deliver.
  const auto topo = small_cluster();
  cluster::ProfileOptions po;
  const auto profile = cluster::profile_network(topo, po);
  persist::write_record(dir.str(), persist::RecordKind::kProfile, 1,
                        persist::encode_profile(profile));

  const auto good = persist::frame_record(persist::RecordKind::kProfile, 2,
                                          persist::encode_profile(profile));
  auto stale = good;
  stale[8] += 3;  // version stamp from another era
  write_raw(dir.path / "profile-0000000000000002.snap", stale);

  auto flipped = good;
  flipped[60] ^= 0x20;
  write_raw(dir.path / "profile-0000000000000003.snap", flipped);

  auto truncated = good;
  truncated.resize(good.size() / 2);
  write_raw(dir.path / "profile-0000000000000004.snap", truncated);

  // The signature of a write torn by a crash: a leftover temp file.
  write_raw(dir.path / "profile-0000000000000005.snap.tmp",
            std::vector<unsigned char>(good.begin(), good.begin() + 40));

  write_raw(dir.path / "README.txt", {'h', 'i'});

  int profiles_seen = 0;
  persist::LoadSinks sinks;
  sinks.profile = [&](std::uint64_t key, std::shared_ptr<const cluster::ProfileResult> p) {
    EXPECT_EQ(key, 1u);
    EXPECT_NE(p, nullptr);
    ++profiles_seen;
  };
  const auto report = persist::load_directory(dir.str(), sinks);

  EXPECT_TRUE(report.attempted);
  EXPECT_EQ(report.loaded_profiles, 1);
  EXPECT_EQ(profiles_seen, 1);
  EXPECT_EQ(report.scanned, 5);  // 4 .snap + 1 .tmp; the README is foreign
  EXPECT_EQ(count_skips(report, persist::SkipReason::kVersionMismatch), 1);
  EXPECT_EQ(count_skips(report, persist::SkipReason::kCrcMismatch), 1);
  EXPECT_EQ(count_skips(report, persist::SkipReason::kTruncated), 1);
  EXPECT_EQ(count_skips(report, persist::SkipReason::kTornWrite), 1);
  EXPECT_EQ(count_skips(report, persist::SkipReason::kForeignFile), 1);
  EXPECT_FALSE(report.clean());

  // The report serializes for the crash-recovery CI artifact.
  const std::string json = report.json();
  EXPECT_NE(json.find("\"version_mismatch\""), std::string::npos);
  EXPECT_NE(json.find("\"torn_write\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":1"), std::string::npos);
}

TEST(PersistStore, MissingDirectoryIsNotAttempted) {
  const auto report = persist::load_directory("/nonexistent/pipette/snapshots", {});
  EXPECT_FALSE(report.attempted);
  EXPECT_EQ(report.loaded(), 0);
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.str().find("no snapshot directory"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fuzz: the loader never crashes, whatever the bytes
// ---------------------------------------------------------------------------

TEST(PersistFuzz, ThousandMutationsAlwaysYieldTypedReports) {
  // Build one valid two-record snapshot directory, then fuzz it with 1000
  // deterministic mutations (byte flips and truncations at seed-derived
  // offsets). Every mutation must produce a terminating load with a typed
  // report: mutated records are skipped, untouched records still load.
  const auto topo = small_cluster();
  const auto opt = fast_options();
  cluster::ProfileOptions po;
  const auto profile_bytes = persist::frame_record(
      persist::RecordKind::kProfile, 11, persist::encode_profile(cluster::profile_network(topo, po)));
  const auto est = estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(),
                                                                     opt.memory_training);
  const auto memory_bytes =
      persist::frame_record(persist::RecordKind::kMemory, 22, persist::encode_memory(est));

  const std::vector<std::pair<std::string, const std::vector<unsigned char>*>> records = {
      {"profile-000000000000000b.snap", &profile_bytes},
      {"memory-0000000000000016.snap", &memory_bytes},
  };

  TempDir dir("pipette_persist_fuzz");
  int total_loaded = 0, total_skipped = 0, noop_mutations = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    common::Rng rng(common::hash_mix(0xf022 + static_cast<std::uint64_t>(iter)));
    const auto victim = static_cast<std::size_t>(rng.uniform_int(0, 1));
    bool victim_changed = false;
    for (std::size_t r = 0; r < records.size(); ++r) {
      auto bytes = *records[r].second;
      if (r == victim) {
        if (rng.bernoulli(0.5)) {
          // Flip 1-3 bits anywhere in the file. Independent draws can land on
          // the same bit twice and cancel out — tracked below, not assumed.
          const int flips = rng.uniform_int(1, 3);
          for (int f = 0; f < flips; ++f) {
            const auto pos =
                static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
            bytes[pos] ^= static_cast<unsigned char>(1u << rng.uniform_int(0, 7));
          }
        } else {
          // Truncate to a strict prefix (possibly empty).
          bytes.resize(
              static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(bytes.size()) - 1)));
        }
        victim_changed = bytes != *records[r].second;
      }
      write_raw(dir.path / records[r].first, bytes);
    }

    const auto report = persist::load_directory(dir.str(), {});
    EXPECT_TRUE(report.attempted);
    EXPECT_EQ(report.scanned, 2) << "iter " << iter;
    // Any *actual* byte change must skip exactly the damaged record (CRC, a
    // header check, or codec validation catches it); the untouched records
    // always load. Mutations that cancelled out must load everything — a
    // false skip would be the loader rejecting valid bytes.
    EXPECT_EQ(report.loaded(), victim_changed ? 1 : 2) << "iter " << iter;
    EXPECT_EQ(report.skipped_count(), victim_changed ? 1 : 0) << "iter " << iter;
    if (!victim_changed) ++noop_mutations;
    total_loaded += report.loaded();
    total_skipped += report.skipped_count();

    // Sampled end-to-end check: a ClusterCache warm-started from the fuzzed
    // directory still terminates and reports the same counts.
    if (iter % 200 == 0) {
      engine::ClusterCache cache;
      const auto cache_report = cache.load(dir.str());
      EXPECT_EQ(cache_report.loaded(), report.loaded()) << "iter " << iter;
      EXPECT_EQ(cache_report.skipped_count(), report.skipped_count()) << "iter " << iter;
    }
  }
  // Self-cancelling flip draws are rare; the sweep must be overwhelmingly
  // real corruption.
  EXPECT_LE(noop_mutations, 5);
  EXPECT_EQ(total_loaded + total_skipped, 2000);
  EXPECT_GE(total_skipped, 995);
}

// ---------------------------------------------------------------------------
// Seed-derived storage chaos
// ---------------------------------------------------------------------------

TEST(PersistChaos, InjectorIsDeterministicPerSeedAndRecord) {
  const std::vector<unsigned char> bytes(256, 7);
  const persist::SnapshotFaultInjector a(42), b(42), c(43);
  EXPECT_EQ(a.kind_for("profile-1.snap"), b.kind_for("profile-1.snap"));
  EXPECT_EQ(a.corrupt("profile-1.snap", bytes), b.corrupt("profile-1.snap", bytes));
  // A different seed or record name decorrelates the damage.
  EXPECT_TRUE(a.corrupt("profile-1.snap", bytes) != c.corrupt("profile-1.snap", bytes) ||
              a.corrupt("memory-2.snap", bytes) != c.corrupt("memory-2.snap", bytes));
  // Damage never lengthens the file (real failures lose data).
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const persist::SnapshotFaultInjector inj(seed);
    EXPECT_LE(inj.corrupt("profile-1.snap", bytes).size(), bytes.size());
  }
}

TEST(PersistChaos, EveryFaultKindYieldsTypedSkipsAndColdService) {
  // Populate a real snapshot directory once (cold service, flushed), then
  // for each pinned fault kind and several seeds: corrupt
  // every record, reload, and demand typed skips — and a service that still
  // configures (cold) on the fully corrupt directory.
  TempDir dir("pipette_persist_chaos");
  const auto topo = small_cluster();
  model::TrainingJob job{model::gpt_774m(), 128};
  core::ConfiguratorResult cold_result;
  {
    engine::ConfigService service(service_options(2, dir.str()));
    cold_result = service.submit_request(topo, job).get().result;
    ASSERT_TRUE(cold_result.found);
    service.flush_snapshots();
  }
  std::vector<std::pair<std::string, std::vector<unsigned char>>> pristine;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    pristine.emplace_back(entry.path().filename().string(),
                          persist::read_file(entry.path().string()));
  }
  ASSERT_EQ(pristine.size(), 2u);  // the profile and the estimator

  using persist::SnapshotFaultKind;
  for (const auto kind : {SnapshotFaultKind::kTornWrite, SnapshotFaultKind::kBitFlip,
                          SnapshotFaultKind::kTruncate, SnapshotFaultKind::kStaleVersion,
                          SnapshotFaultKind::kNone /* = per-record mix */}) {
    for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
      for (const auto& [name, bytes] : pristine) write_raw(dir.path / name, bytes);
      const persist::SnapshotFaultInjector injector(seed, kind);
      EXPECT_EQ(injector.corrupt_directory(dir.str()), static_cast<int>(pristine.size()))
          << persist::to_string(kind) << " seed " << seed;

      engine::ClusterCache cache;
      const auto report = cache.load(dir.str());
      EXPECT_TRUE(report.attempted);
      EXPECT_EQ(report.loaded(), 0) << persist::to_string(kind) << " seed " << seed;
      EXPECT_EQ(report.skipped_count(), static_cast<int>(pristine.size()));
      for (const auto& skip : report.skipped) {
        EXPECT_FALSE(skip.detail.empty()) << skip.file;
      }
    }
  }

  // The fully corrupt directory degrades to a cold start: the service comes
  // up empty, configures from scratch, and matches the original answer.
  engine::ConfigService survivor(service_options(2, dir.str()));
  EXPECT_EQ(survivor.load_report().loaded(), 0);
  EXPECT_FALSE(survivor.load_report().clean());
  const auto res = survivor.submit_request(topo, job).get().result;
  expect_identical(res, cold_result);
  EXPECT_FALSE(res.profile_from_disk);
  EXPECT_FALSE(res.memory_from_disk);
}

// ---------------------------------------------------------------------------
// Warm restarts: bit-identical, provenance-tagged
// ---------------------------------------------------------------------------

TEST(PersistWarmRestart, BitIdenticalToColdAcrossThreadCounts) {
  TempDir dir("pipette_persist_warm");
  const auto topo = small_cluster();
  const std::vector<model::TrainingJob> jobs = {{model::gpt_774m(), 128},
                                                {model::gpt_774m(), 256}};

  std::vector<engine::ServiceResult> cold_results;
  {
    engine::ConfigService cold(service_options(1, dir.str()));
    cold_results = cold.sweep(topo, jobs);
    for (const auto& sr : cold_results) {
      EXPECT_FALSE(sr.result.profile_from_disk);
      EXPECT_FALSE(sr.result.memory_from_disk);
    }
    cold.flush_snapshots();
    EXPECT_GE(cold.persisted_records(), 2);  // profile + estimator
    EXPECT_EQ(cold.persist_failures(), 0);
  }

  for (const int threads : {1, 4, 16}) {
    engine::ConfigService warm(service_options(threads, dir.str()));
    const auto& lr = warm.load_report();
    EXPECT_TRUE(lr.attempted);
    EXPECT_TRUE(lr.clean());
    EXPECT_EQ(lr.loaded_profiles, 1);
    EXPECT_EQ(lr.loaded_estimators, 1);

    const auto warm_results = warm.sweep(topo, jobs);
    ASSERT_EQ(warm_results.size(), cold_results.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const core::ConfiguratorResult& warm_res = warm_results[i].result;
      expect_identical(cold_results[i].result, warm_res);
      EXPECT_TRUE(warm_res.profile_from_disk) << "threads " << threads;
      EXPECT_TRUE(warm_res.memory_from_disk) << "threads " << threads;
      EXPECT_TRUE(warm_res.profile_cache_hit);
      EXPECT_TRUE(warm_res.memory_cache_hit);
    }
    // The warm service recomputed nothing.
    const auto stats = warm.cache_stats();
    EXPECT_EQ(stats.profiles_run, 0) << "threads " << threads;
    EXPECT_EQ(stats.trainings_run, 0) << "threads " << threads;

    // Provenance reaches explain()'s cache block and the persist metrics.
    const auto explain = warm_results[0].result.explain();
    EXPECT_NE(explain.find("\"profile_from_disk\":true"), std::string::npos);
    EXPECT_NE(explain.find("\"memory_estimator_from_disk\":true"), std::string::npos);
    const auto snap = warm.metrics().snapshot();
    EXPECT_EQ(snap.counter("pipette.persist.records_loaded"), 2);
    EXPECT_EQ(snap.counter("pipette.persist.records_skipped"), 0);
  }
}

TEST(PersistWarmRestart, RoundTrippedArtifactsConfigureBitIdentically) {
  // Decode-from-bytes (not just reload-from-directory) feeding a real
  // configure: serialize the two artifacts, decode them, hand both services
  // the same inputs, and demand the same recommendation at several thread
  // counts — the codec round trip is behaviorally invisible.
  const auto topo = small_cluster();
  const auto opt = fast_options();
  model::TrainingJob job{model::gpt_1_1b(), 256};

  cluster::ProfileOptions po = opt.profile;
  const auto profile = cluster::profile_network(topo, po);
  const auto est = estimators::MlpMemoryEstimator::train_for_cluster(topo, model::gpt_zoo(),
                                                                     opt.memory_training);
  const auto pbytes = persist::encode_profile(profile);
  const auto mbytes = persist::encode_memory(est);

  core::PipetteOptions direct = opt;
  direct.profile_snapshot = std::make_shared<const cluster::ProfileResult>(profile);
  direct.memory = std::make_shared<const estimators::MlpMemoryEstimator>(est);

  core::PipetteOptions restored = opt;
  restored.profile_snapshot = std::make_shared<const cluster::ProfileResult>(
      persist::decode_profile(pbytes.data(), pbytes.size()));
  restored.memory = std::make_shared<const estimators::MlpMemoryEstimator>(
      persist::decode_memory(mbytes.data(), mbytes.size()));

  for (const int threads : {1, 4, 16}) {
    engine::ConfigServiceOptions a = service_options(threads);
    a.pipette = direct;
    engine::ConfigServiceOptions b = service_options(threads);
    b.pipette = restored;
    engine::ConfigService sa(a), sb(b);
    const auto ra = sa.submit_request(topo, job).get().result;
    const auto rb = sb.submit_request(topo, job).get().result;
    expect_identical(ra, rb);
  }
}

TEST(PersistCompat, RetiredComputeRecordIsOneTypedSkip) {
  // Before compute shapes stopped being cached, a v2 service also wrote a
  // `compute-*.snap` of record kind 3 beside its profile and estimator. Kind
  // 3 is retired: that file must be one typed skip while the other two
  // records still warm the service.
  TempDir dir("pipette_persist_compat");
  const auto topo = small_cluster();
  const model::TrainingJob job{model::gpt_774m(), 128};
  {
    engine::ConfigService writer(service_options(2, dir.str()));
    ASSERT_TRUE(writer.submit_request(topo, job).get().result.found);
    writer.flush_snapshots();
  }
  // The shape-cache payload in the layout v2 wrote: context digest, shape
  // count, then each shape's key fields and profile.
  persist::ByteWriter w;
  w.u64(0xc0ffee);  // context digest
  w.u64(1);         // one shape
  w.u64(5);         // model digest
  w.i32(2);         // pp
  w.i32(2);         // tp
  w.i32(4);         // micro_batch
  w.u8(0);          // 1F1B
  w.i32(1);         // virtual_stages
  w.u8(0);          // no recomputation
  w.f64_vec({0.1, 0.1});
  w.f64_vec({0.2, 0.2});
  w.f64(0.3);
  const std::string compute_name = "compute-0000000000c0ffee.snap";
  write_raw(dir.path / compute_name,
            persist::frame_record(static_cast<persist::RecordKind>(3), 0xc0ffee, w.take()));

  engine::ConfigService warm(service_options(2, dir.str()));
  const auto& lr = warm.load_report();
  EXPECT_EQ(lr.loaded_profiles, 1);
  EXPECT_EQ(lr.loaded_estimators, 1);
  ASSERT_EQ(lr.skipped_count(), 1);
  EXPECT_EQ(lr.skipped[0].file, compute_name);
  EXPECT_EQ(lr.skipped[0].reason, persist::SkipReason::kDecodeError);
  EXPECT_NE(lr.skipped[0].detail.find("unknown record kind 3"), std::string::npos)
      << lr.skipped[0].detail;

  engine::ConfigService cold(service_options(2));
  const auto cold_res = cold.submit_request(topo, job).get().result;
  const auto warm_res = warm.submit_request(topo, job).get().result;
  expect_identical(cold_res, warm_res);
  EXPECT_TRUE(warm_res.profile_from_disk);
  EXPECT_TRUE(warm_res.memory_from_disk);
}

// ---------------------------------------------------------------------------
// Bounded cache: the LRU bound
// ---------------------------------------------------------------------------

TEST(ClusterCacheLru, MaxEntriesEvictsLeastRecentAcrossMaps) {
  obs::Registry metrics;
  engine::ClusterCacheOptions co;
  co.max_entries = 2;  // every lookup needs 2 slots: one fabric fits, two don't
  co.metrics = &metrics;
  engine::ClusterCache cache(co);

  const auto opt = fast_options();
  cluster::ProfileOptions po;
  // Four different days on the same spec: four profile keys, one shared
  // estimator key.
  for (std::uint64_t day = 1; day <= 4; ++day) {
    const auto entry = cache.get_or_compute(small_cluster(day), po, opt.memory_training);
    EXPECT_NE(entry.profile, nullptr);
    EXPECT_NE(entry.memory, nullptr);
  }

  const auto stats = cache.stats();
  // Each new day must evict the previous day's profile to stay at 2 total.
  EXPECT_GE(stats.evictions, 3);
  EXPECT_EQ(cache.cached_profiles(), 1);
  EXPECT_EQ(cache.cached_estimators(), 1);
  // The estimator survived every eviction round (always fresher than the
  // stale profile) — trained exactly once.
  EXPECT_EQ(stats.trainings_run, 1);
  EXPECT_EQ(stats.profiles_run, 4);
  EXPECT_EQ(metrics.snapshot().counter("engine.cluster_cache.evictions"), stats.evictions);

  // Re-requesting the last day is a full hit: its entries were the survivors.
  const auto again = cache.get_or_compute(small_cluster(4), po, opt.memory_training);
  EXPECT_TRUE(again.profile_was_cached);
  EXPECT_TRUE(again.memory_was_cached);
  EXPECT_EQ(cache.stats().profiles_run, 4);
}

// ---------------------------------------------------------------------------
// Persister: disk failure is counted, never fatal
// ---------------------------------------------------------------------------

TEST(Persister, UnwritableDirectoryDegradesToCountedFailures) {
  TempDir dir("pipette_persist_unwritable");
  // A *file* where the snapshot directory should be: every write fails.
  const auto blocker = dir.path / "blocked";
  write_raw(blocker, {1});

  obs::Registry metrics;
  engine::ClusterCacheOptions co;
  co.snapshot_dir = (blocker / "snapshots").string();
  co.metrics = &metrics;
  engine::ClusterCache cache(co);

  const auto opt = fast_options();
  cluster::ProfileOptions po;
  const auto entry = cache.get_or_compute(small_cluster(), po, opt.memory_training);
  // The request itself is untouched by the sick disk.
  EXPECT_NE(entry.profile, nullptr);
  EXPECT_NE(entry.memory, nullptr);
  cache.flush();  // every record written or dropped
  EXPECT_GE(cache.persist_failures(), 2);  // profile + estimator both dropped
  EXPECT_EQ(cache.persisted_records(), 0);

  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.counter("pipette.persist.write_failures"), 2);
  EXPECT_GE(snap.counter("pipette.persist.write_retries"), 2 * persist::Persister::kRetries);
  EXPECT_EQ(snap.counter("pipette.persist.records_written"), 0);
}

TEST(Persister, RejectsUnusableRetryOptions) {
  // A NaN or infinite delay reached sleep_for's float-to-integer conversion.
  using limits = std::numeric_limits<double>;
  using Opt = engine::ClusterCacheOptions;
  struct Case {
    const char* field;
    void (*corrupt)(Opt&);
  };
  const Case cases[] = {
      {"persist_write_delay_s", [](Opt& o) { o.persist_write_delay_s = limits::quiet_NaN(); }},
      {"persist_write_delay_s", [](Opt& o) { o.persist_write_delay_s = limits::infinity(); }},
      {"persist_write_delay_s", [](Opt& o) { o.persist_write_delay_s = -1.0; }},
  };
  TempDir dir("pipette_persist_bad_options");
  for (const Case& c : cases) {
    Opt co;
    c.corrupt(co);
    // Inert without a snapshot directory: nothing is ever written.
    EXPECT_NO_THROW(engine::ClusterCache{co}) << c.field;
    co.snapshot_dir = dir.str();
    try {
      engine::ClusterCache cache(co);
      ADD_FAILURE() << c.field << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("ClusterCacheOptions::") + c.field + " "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Persister, WriteBehindFlushMakesDirectoryLoadable) {
  TempDir dir("pipette_persist_wb");
  engine::ClusterCacheOptions co;
  co.snapshot_dir = dir.str();
  engine::ClusterCache cache(co);

  const auto opt = fast_options();
  cluster::ProfileOptions po;
  cache.get_or_compute(small_cluster(), po, opt.memory_training);
  cache.flush();
  EXPECT_GE(cache.persisted_records(), 2);
  EXPECT_EQ(cache.persist_failures(), 0);

  engine::ClusterCache fresh;
  const auto report = fresh.load(dir.str());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded_profiles, 1);
  EXPECT_EQ(report.loaded_estimators, 1);

  // Loading honours the LRU bound too: every record loads, the older cell goes.
  engine::ClusterCacheOptions one;
  one.max_entries = 1;
  engine::ClusterCache bounded(one);
  EXPECT_EQ(bounded.load(dir.str()).loaded(), 2);
  EXPECT_EQ(bounded.cached_profiles() + bounded.cached_estimators(), 1);
  EXPECT_EQ(bounded.stats().evictions, 1);
}
