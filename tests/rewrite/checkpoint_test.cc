// Trainer-checkpoint persistence: atomic write/rename, checksummed
// all-or-nothing loads, rotation, and the file-name/listing helpers —
// mirrors the corruption battery of tests/index/persist_test.cc.

#include "rewrite/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/checksum.h"
#include "core/file_util.h"

namespace cyqr {
namespace {

struct TinyWorld {
  Vocabulary vocab;
  std::vector<SeqPair> pairs;
};

TinyWorld MakeTinyWorld() {
  TinyWorld world;
  const std::vector<std::vector<std::string>> corpus = {
      {"cheap", "phone"},  {"brandx", "model1", "smartphone", "budget"},
      {"senior", "phone"}, {"brandx", "model2", "smartphone", "elderly"},
      {"gift", "watch"},   {"brandy", "luxury", "wrist", "watch"},
  };
  world.vocab = Vocabulary::Build(corpus);
  for (size_t i = 0; i + 1 < corpus.size(); i += 2) {
    world.pairs.push_back({world.vocab.Encode(corpus[i]),
                           world.vocab.Encode(corpus[i + 1])});
  }
  return world;
}

CycleConfig TinyConfig(int64_t vocab_size) {
  CycleConfig config = PaperScaledConfig(vocab_size);
  config.forward.num_layers = 1;
  config.forward.d_model = 16;
  config.forward.ff_hidden = 32;
  config.backward.num_layers = 1;
  config.backward.d_model = 16;
  config.backward.ff_hidden = 32;
  config.backward.vocab_size = vocab_size;
  config.max_title_len = 8;
  config.max_query_len = 6;
  return config;
}

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A trainer stepped a few times so the checkpoint has non-trivial
/// optimizer moments, RNG offsets, and traces. The Rng is heap-held so
/// the model's dropout pointer into it survives the struct being moved.
struct SteppedTrainer {
  TinyWorld world;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<CycleModel> model;
  std::unique_ptr<CycleTrainer> trainer;
};

SteppedTrainer MakeSteppedTrainer(int steps) {
  SteppedTrainer st;
  st.world = MakeTinyWorld();
  st.rng = std::make_unique<Rng>(11);
  st.model = std::make_unique<CycleModel>(TinyConfig(st.world.vocab.size()),
                                          *st.rng);
  CycleTrainerOptions options;
  options.max_steps = 100;
  options.warmup_steps = 100;
  options.batch_size = 2;
  options.grad_shards = 1;
  options.eval_every = 0;
  st.trainer =
      std::make_unique<CycleTrainer>(st.model.get(), st.world.pairs, options);
  for (int i = 0; i < steps; ++i) st.trainer->StepOnce();
  return st;
}

TrainerCheckpoint SnapshotOf(const SteppedTrainer& st) {
  TrainerCheckpoint ckpt;
  ckpt.step = st.trainer->step();
  ckpt.trainer_rng = RngState{};
  ckpt.skipped_batches = st.trainer->skipped_batches();
  ckpt.grad_norms = st.trainer->grad_norms();
  ckpt.curve = st.trainer->curve();
  return ckpt;
}

TEST(TrainerCheckpointTest, SaveLoadRoundTrip) {
  SteppedTrainer st = MakeSteppedTrainer(5);
  const std::string dir = FreshDir("ckpt_roundtrip");
  const std::string path = dir + "/" + CheckpointFileName(5);

  TrainerCheckpoint ckpt = SnapshotOf(st);
  ckpt.trainer_rng.s[0] = 0xDEADBEEF;
  ckpt.trainer_rng.has_cached_gaussian = true;
  ckpt.trainer_rng.cached_gaussian = 0.25;
  ckpt.consecutive_anomalies = 1;
  ASSERT_TRUE(
      SaveTrainerCheckpoint(st.model->Parameters(), ckpt, path).ok());

  // Restore into a second, differently-initialized model.
  Rng rng2(99);
  CycleModel other(TinyConfig(st.world.vocab.size()), rng2);
  TrainerCheckpoint restored;
  ASSERT_TRUE(
      LoadTrainerCheckpoint(other.Parameters(), &restored, path).ok());
  EXPECT_EQ(restored.step, 5);
  EXPECT_EQ(restored.trainer_rng.s[0], 0xDEADBEEFu);
  EXPECT_TRUE(restored.trainer_rng.has_cached_gaussian);
  EXPECT_EQ(restored.trainer_rng.cached_gaussian, 0.25);
  EXPECT_EQ(restored.consecutive_anomalies, 1);
  EXPECT_EQ(restored.grad_norms, ckpt.grad_norms);
  const std::vector<Tensor> a = st.model->Parameters();
  const std::vector<Tensor> b = other.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    for (int64_t i = 0; i < a[t].NumElements(); ++i) {
      ASSERT_EQ(a[t].data()[i], b[t].data()[i])
          << "tensor " << t << " element " << i;
    }
  }
}

TEST(TrainerCheckpointTest, NoTempFileLeftBehind) {
  SteppedTrainer st = MakeSteppedTrainer(2);
  const std::string dir = FreshDir("ckpt_no_tmp");
  const std::string path = dir + "/" + CheckpointFileName(2);
  ASSERT_TRUE(
      SaveTrainerCheckpoint(st.model->Parameters(), SnapshotOf(st), path)
          .ok());
  EXPECT_FALSE(std::filesystem::exists(TempPathFor(path)));
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(TrainerCheckpointTest, CorruptByteFailsAndLeavesModelUntouched) {
  SteppedTrainer st = MakeSteppedTrainer(3);
  const std::string dir = FreshDir("ckpt_corrupt");
  const std::string path = dir + "/" + CheckpointFileName(3);
  ASSERT_TRUE(
      SaveTrainerCheckpoint(st.model->Parameters(), SnapshotOf(st), path)
          .ok());
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = content.value();
  bytes[bytes.size() / 3] ^= 0x40;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  Rng rng2(99);
  CycleModel other(TinyConfig(st.world.vocab.size()), rng2);
  const float before = other.Parameters()[0].data()[0];
  TrainerCheckpoint restored;
  restored.step = 42;
  EXPECT_FALSE(
      LoadTrainerCheckpoint(other.Parameters(), &restored, path).ok());
  // All-or-nothing: neither the state struct nor the tensors changed.
  EXPECT_EQ(restored.step, 42);
  EXPECT_EQ(other.Parameters()[0].data()[0], before);
}

std::vector<float> FlattenParams(const CycleModel& model) {
  std::vector<float> flat;
  for (const Tensor& p : model.Parameters()) {
    flat.insert(flat.end(), p.data(), p.data() + p.NumElements());
  }
  return flat;
}

TEST(TrainerCheckpointTest, VersionOneFileIsRejectedAndLeavesModelUntouched) {
  SteppedTrainer st = MakeSteppedTrainer(2);
  const std::string dir = FreshDir("ckpt_version1");
  const std::string path = dir + "/" + CheckpointFileName(2);
  ASSERT_TRUE(
      SaveTrainerCheckpoint(st.model->Parameters(), SnapshotOf(st), path)
          .ok());
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = content.value();
  // The payload opens with the uint32 magic and version; the footer ends
  // the file with its magic, the payload length and the payload's FNV-1a
  // checksum. Relabel the file version 1 under a valid checksum, so only
  // the version check can refuse it.
  constexpr size_t kFooterBytes = sizeof(uint32_t) + 2 * sizeof(uint64_t);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(uint32_t), sizeof(version));
  ASSERT_EQ(version, 2u);
  version = 1;
  std::memcpy(bytes.data() + sizeof(uint32_t), &version, sizeof(version));
  const uint64_t checksum = Fnv1a64(
      std::string_view(bytes).substr(0, bytes.size() - kFooterBytes));
  std::memcpy(bytes.data() + bytes.size() - sizeof(checksum), &checksum,
              sizeof(checksum));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  Rng rng2(99);
  CycleModel other(TinyConfig(st.world.vocab.size()), rng2);
  const std::vector<float> before = FlattenParams(other);
  TrainerCheckpoint restored;
  restored.step = 42;
  const Status status =
      LoadTrainerCheckpoint(other.Parameters(), &restored, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("version 1"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(restored.step, 42);
  EXPECT_EQ(FlattenParams(other), before);
}

TEST(TrainerCheckpointTest, EveryTruncationFails) {
  SteppedTrainer st = MakeSteppedTrainer(2);
  const std::string dir = FreshDir("ckpt_trunc");
  const std::string full_path = dir + "/" + CheckpointFileName(2);
  ASSERT_TRUE(SaveTrainerCheckpoint(st.model->Parameters(), SnapshotOf(st),
                                    full_path)
                  .ok());
  Result<std::string> content = ReadFileToString(full_path);
  ASSERT_TRUE(content.ok());
  const std::string& bytes = content.value();

  Rng rng2(99);
  CycleModel other(TinyConfig(st.world.vocab.size()), rng2);
  const std::string cut_path = dir + "/cut.cyqc";
  // Step through prefixes (coarsely; the file is tens of KB).
  for (size_t cut = 0; cut < bytes.size();
       cut += 1 + bytes.size() / 97) {
    std::ofstream(cut_path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, cut);
    TrainerCheckpoint restored;
    EXPECT_FALSE(
        LoadTrainerCheckpoint(other.Parameters(), &restored, cut_path).ok())
        << "truncation to " << cut << " bytes was accepted";
  }
}

TEST(TrainerCheckpointTest, MissingFileFails) {
  Rng rng(1);
  TinyWorld world = MakeTinyWorld();
  CycleModel model(TinyConfig(world.vocab.size()), rng);
  TrainerCheckpoint restored;
  EXPECT_FALSE(LoadTrainerCheckpoint(model.Parameters(), &restored,
                                     "/nonexistent/ckpt.cyqc")
                   .ok());
}

TEST(CheckpointFilesTest, FileNamesSortChronologically) {
  EXPECT_EQ(CheckpointFileName(42), "ckpt-000000000042.cyqc");
  EXPECT_LT(CheckpointFileName(999), CheckpointFileName(1000));
}

TEST(CheckpointFilesTest, ListAndLatest) {
  const std::string dir = FreshDir("ckpt_list");
  for (int64_t step : {30, 10, 20}) {
    std::ofstream(dir + "/" + CheckpointFileName(step)) << "x";
  }
  std::ofstream(dir + "/notes.txt") << "ignored";
  Result<std::vector<std::string>> files = ListCheckpointFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 3u);
  EXPECT_NE(files.value()[0].find(CheckpointFileName(10)),
            std::string::npos);
  EXPECT_NE(files.value()[2].find(CheckpointFileName(30)),
            std::string::npos);
  Result<std::string> latest = LatestCheckpointFile(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_NE(latest.value().find(CheckpointFileName(30)), std::string::npos);
}

TEST(CheckpointFilesTest, AbsentDirIsEmptyNotError) {
  Result<std::vector<std::string>> files =
      ListCheckpointFiles(testing::TempDir() + "/ckpt_never_created");
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files.value().empty());
}

TEST(CheckpointFilesTest, LatestOnEmptyDirIsNotFound) {
  const std::string dir = FreshDir("ckpt_empty");
  Result<std::string> latest = LatestCheckpointFile(dir);
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFilesTest, PruneKeepsNewest) {
  const std::string dir = FreshDir("ckpt_prune");
  for (int64_t step : {10, 20, 30, 40, 50}) {
    std::ofstream(dir + "/" + CheckpointFileName(step)) << "x";
  }
  ASSERT_TRUE(PruneCheckpoints(dir, 2).ok());
  Result<std::vector<std::string>> files = ListCheckpointFiles(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 2u);
  EXPECT_NE(files.value()[0].find(CheckpointFileName(40)),
            std::string::npos);
  EXPECT_NE(files.value()[1].find(CheckpointFileName(50)),
            std::string::npos);
}

TEST(CheckpointFilesTest, PruneRejectsNonPositiveKeep) {
  const std::string dir = FreshDir("ckpt_prune_bad");
  EXPECT_FALSE(PruneCheckpoints(dir, 0).ok());
}

}  // namespace
}  // namespace cyqr
