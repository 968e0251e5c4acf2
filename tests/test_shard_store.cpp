// Tests for the subject-sharded on-disk store (fcma.shards.v1): bit-exact
// round trips, mmap lifecycle, and rejection of truncated, corrupted, and
// wrong-schema files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "fmri/dataset_view.hpp"
#include "fmri/io.hpp"
#include "fmri/presets.hpp"
#include "fmri/shard_store.hpp"
#include "fmri/synthetic.hpp"

namespace fcma::fmri {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("fcma_shard_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

Dataset small_dataset() {
  DatasetSpec spec = tiny_spec();
  spec.voxels = 48;
  spec.subjects = 3;
  spec.epochs_total = 12;
  return generate_synthetic(spec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ShardStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = small_dataset();
    stem_ = dir_.file("store");
    write_shard_store(stem_, dataset_);
  }

  TempDir dir_;
  Dataset dataset_ = Dataset();
  std::string stem_;
};

TEST_F(ShardStoreTest, RoundTripPanelsAreBitIdentical) {
  const auto view = open_shard_store(stem_, "store");
  ASSERT_EQ(view->voxels(), dataset_.voxels());
  ASSERT_EQ(view->subjects(), dataset_.subjects());
  ASSERT_EQ(view->epochs().size(), dataset_.epochs().size());
  for (std::size_t m = 0; m < dataset_.epochs().size(); ++m) {
    const Epoch& e = dataset_.epochs()[m];
    const DatasetView::Panel panel = view->epoch_panel(m);
    ASSERT_EQ(panel.view.rows, dataset_.voxels());
    ASSERT_EQ(panel.view.cols, static_cast<std::size_t>(e.length));
    for (std::size_t v = 0; v < dataset_.voxels(); ++v) {
      EXPECT_EQ(std::memcmp(panel.view.row(v),
                            dataset_.data().row(v) + e.start,
                            e.length * sizeof(float)),
                0)
          << "epoch " << m << " voxel " << v;
    }
  }
}

TEST_F(ShardStoreTest, NormalizedEpochsMatchInMemoryBackend) {
  const auto view = open_shard_store(stem_, "store");
  const NormalizedEpochs from_store = normalize_epochs(*view);
  const NormalizedEpochs from_memory = normalize_epochs(dataset_);
  ASSERT_EQ(from_store.per_epoch.size(), from_memory.per_epoch.size());
  for (std::size_t m = 0; m < from_store.per_epoch.size(); ++m) {
    const linalg::Matrix& a = from_store.per_epoch[m];
    const linalg::Matrix& b = from_memory.per_epoch[m];
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.row(0), b.row(0),
                          a.rows() * a.ld() * sizeof(float)),
              0);
  }
}

TEST_F(ShardStoreTest, ShardsUnmapWhenLastPanelDrops) {
  const auto view = open_shard_store(stem_, "store");
  EXPECT_EQ(view->mapped_shards(), 0u);
  {
    const DatasetView::Panel p0 = view->epoch_panel(0);
    EXPECT_EQ(view->mapped_shards(), 1u);
    // A second panel of the same subject shares the mapping.
    const DatasetView::Panel p1 = view->epoch_panel(1);
    EXPECT_EQ(view->mapped_shards(), 1u);
  }
  EXPECT_EQ(view->mapped_shards(), 0u);
}

TEST_F(ShardStoreTest, OpenDatasetViewSelectsBackendByManifest) {
  const auto sharded = open_dataset_view(stem_, "store");
  EXPECT_NE(dynamic_cast<ShardStoreView*>(sharded.get()), nullptr);

  const std::string plain = dir_.file("plain");
  save_dataset(plain, dataset_);
  const auto memory = open_dataset_view(plain, "plain");
  EXPECT_NE(dynamic_cast<InMemoryView*>(memory.get()), nullptr);
  EXPECT_EQ(memory->epochs().size(), dataset_.epochs().size());
}

TEST_F(ShardStoreTest, TruncatedShardIsRejected) {
  const auto view = open_shard_store(stem_, "store");
  const std::string shard_path = view->shards().front().path;
  const auto size = std::filesystem::file_size(shard_path);
  std::filesystem::resize_file(shard_path, size - 64);
  EXPECT_THROW((void)open_shard_store(stem_, "store"), Error);
}

TEST_F(ShardStoreTest, PayloadCorruptionFailsChecksum) {
  const auto view = open_shard_store(stem_, "store");
  const std::string shard_path = view->shards().front().path;
  std::string bytes = read_file(shard_path);
  ASSERT_GT(bytes.size(), 4100u);
  bytes[4100] = static_cast<char>(bytes[4100] ^ 0x40);  // inside the payload
  write_file(shard_path, bytes);
  // Header and size still validate, so open succeeds; the checksum is
  // verified on first map and must throw there.
  const auto reopened = open_shard_store(stem_, "store");
  EXPECT_THROW((void)reopened->epoch_panel(0), Error);
}

TEST_F(ShardStoreTest, WrongMagicIsRejected) {
  const auto view = open_shard_store(stem_, "store");
  const std::string shard_path = view->shards().front().path;
  std::string bytes = read_file(shard_path);
  bytes[0] = 'X';
  write_file(shard_path, bytes);
  EXPECT_THROW((void)open_shard_store(stem_, "store"), Error);
}

TEST_F(ShardStoreTest, WrongManifestSchemaIsRejected) {
  std::string manifest = read_file(stem_ + ".shards");
  const auto pos = manifest.find("fcma.shards.v1");
  ASSERT_NE(pos, std::string::npos);
  manifest.replace(pos, 14, "fcma.shards.v9");
  write_file(stem_ + ".shards", manifest);
  EXPECT_THROW((void)open_shard_store(stem_, "store"), Error);
}

TEST_F(ShardStoreTest, GeometryMismatchAgainstManifestIsRejected) {
  // The manifest says one thing, the shard header another: tamper with the
  // header's voxel count (and nothing else) — open must cross-validate.
  const auto view = open_shard_store(stem_, "store");
  const std::string shard_path = view->shards().front().path;
  std::string bytes = read_file(shard_path);
  std::uint64_t voxels = 0;
  std::memcpy(&voxels, bytes.data() + 16, sizeof(voxels));
  ++voxels;
  std::memcpy(bytes.data() + 16, &voxels, sizeof(voxels));
  write_file(shard_path, bytes);
  EXPECT_THROW((void)open_shard_store(stem_, "store"), Error);
}

TEST(DatasetViewMeta, EpochsOfSubjectWithNoEpochsIsEmpty) {
  const Dataset d = small_dataset();
  const InMemoryView view(d);
  EXPECT_TRUE(view.epochs_of_subject(99).empty());
  EXPECT_FALSE(view.epochs_of_subject(0).empty());
}

}  // namespace
}  // namespace fcma::fmri
