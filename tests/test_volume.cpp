// Tests for the volumetric geometry, brain mask, ROI clustering, and the
// blob-planting volumetric generator.
#include <gtest/gtest.h>

#include <set>

#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "fmri/volume.hpp"

namespace fcma::fmri {
namespace {

TEST(VolumeGeometry, IndexCoordRoundtrip) {
  const VolumeGeometry g{5, 7, 3};
  EXPECT_EQ(g.size(), 105u);
  for (std::uint32_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.index_of(g.coord_of(i)), i);
  }
}

TEST(VolumeGeometry, XIsFastest) {
  const VolumeGeometry g{4, 4, 4};
  EXPECT_EQ(g.index_of(Coord{1, 0, 0}), 1u);
  EXPECT_EQ(g.index_of(Coord{0, 1, 0}), 4u);
  EXPECT_EQ(g.index_of(Coord{0, 0, 1}), 16u);
}

TEST(VolumeGeometry, ContainsBounds) {
  const VolumeGeometry g{4, 4, 4};
  EXPECT_TRUE(g.contains(Coord{0, 0, 0}));
  EXPECT_TRUE(g.contains(Coord{3, 3, 3}));
  EXPECT_FALSE(g.contains(Coord{4, 0, 0}));
  EXPECT_FALSE(g.contains(Coord{0, -1, 0}));
  EXPECT_THROW((void)g.index_of(Coord{4, 0, 0}), Error);
  EXPECT_THROW((void)g.coord_of(64), Error);
}

TEST(BrainMask, EllipsoidIsCenteredAndNonTrivial) {
  const VolumeGeometry g{16, 16, 16};
  const BrainMask mask = BrainMask::ellipsoid(g);
  EXPECT_GT(mask.voxels(), g.size() / 4);
  EXPECT_LT(mask.voxels(), g.size());
  // Center voxel is brain; corners are not.
  EXPECT_TRUE(mask.in_brain(Coord{8, 8, 8}));
  EXPECT_FALSE(mask.in_brain(Coord{0, 0, 0}));
  EXPECT_FALSE(mask.in_brain(Coord{15, 15, 15}));
}

TEST(BrainMask, MappingsAreConsistent) {
  const VolumeGeometry g{8, 8, 8};
  const BrainMask mask = BrainMask::ellipsoid(g);
  for (std::uint32_t m = 0; m < mask.voxels(); ++m) {
    const Coord c = mask.coord(m);
    EXPECT_EQ(mask.mask_index(c), static_cast<std::int64_t>(m));
  }
}

TEST(BrainMask, MaskIndicesAreSortedByGridIndex) {
  const VolumeGeometry g{8, 8, 8};
  const BrainMask mask = BrainMask::ellipsoid(g);
  std::uint32_t prev = 0;
  for (std::uint32_t m = 0; m < mask.voxels(); ++m) {
    EXPECT_GE(mask.grid_index(m), prev);
    prev = mask.grid_index(m);
  }
}

TEST(BrainMask, CustomMaskFromGrid) {
  const VolumeGeometry g{3, 3, 1};
  std::vector<bool> in(g.size(), false);
  in[g.index_of(Coord{1, 1, 0})] = true;
  in[g.index_of(Coord{2, 1, 0})] = true;
  const BrainMask mask(g, in);
  EXPECT_EQ(mask.voxels(), 2u);
  EXPECT_EQ(mask.mask_index(Coord{0, 0, 0}), -1);
  EXPECT_THROW(BrainMask(g, std::vector<bool>(g.size(), false)), Error);
}

TEST(Clusters, SingleBlob) {
  const VolumeGeometry g{8, 8, 8};
  const BrainMask mask = BrainMask::ellipsoid(g, 1.0);
  // A 2x2x1 blob around the center.
  std::vector<std::uint32_t> sel;
  for (const Coord c : {Coord{4, 4, 4}, Coord{5, 4, 4}, Coord{4, 5, 4},
                        Coord{5, 5, 4}}) {
    sel.push_back(static_cast<std::uint32_t>(mask.mask_index(c)));
  }
  const auto clusters = find_clusters(mask, sel);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 4u);
  EXPECT_NEAR(clusters[0].centroid_x, 4.5, 1e-12);
  EXPECT_NEAR(clusters[0].centroid_y, 4.5, 1e-12);
  EXPECT_NEAR(clusters[0].centroid_z, 4.0, 1e-12);
}

TEST(Clusters, DiagonalVoxelsAreSeparateUnderSixConnectivity) {
  const VolumeGeometry g{6, 6, 6};
  const BrainMask mask = BrainMask::ellipsoid(g, 1.0);
  std::vector<std::uint32_t> sel{
      static_cast<std::uint32_t>(mask.mask_index(Coord{2, 2, 2})),
      static_cast<std::uint32_t>(mask.mask_index(Coord{3, 3, 2}))};
  const auto clusters = find_clusters(mask, sel);
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(Clusters, MinSizeFiltersSingletons) {
  const VolumeGeometry g{8, 8, 8};
  const BrainMask mask = BrainMask::ellipsoid(g, 1.0);
  std::vector<std::uint32_t> sel{
      static_cast<std::uint32_t>(mask.mask_index(Coord{2, 2, 2})),
      static_cast<std::uint32_t>(mask.mask_index(Coord{5, 5, 5})),
      static_cast<std::uint32_t>(mask.mask_index(Coord{5, 5, 4}))};
  EXPECT_EQ(find_clusters(mask, sel, 1).size(), 2u);
  const auto big = find_clusters(mask, sel, 2);
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0].size(), 2u);
}

TEST(Clusters, SortedLargestFirst) {
  const VolumeGeometry g{10, 10, 4};
  const BrainMask mask = BrainMask::ellipsoid(g, 1.0);
  std::vector<std::uint32_t> sel;
  // Blob of 3 and blob of 1, far apart.
  for (const Coord c : {Coord{2, 2, 1}, Coord{3, 2, 1}, Coord{4, 2, 1},
                        Coord{7, 7, 2}}) {
    sel.push_back(static_cast<std::uint32_t>(mask.mask_index(c)));
  }
  const auto clusters = find_clusters(mask, sel);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 3u);
  EXPECT_EQ(clusters[1].size(), 1u);
}

TEST(Clusters, EmptySelection) {
  const VolumeGeometry g{4, 4, 4};
  const BrainMask mask = BrainMask::ellipsoid(g, 1.0);
  EXPECT_TRUE(find_clusters(mask, {}).empty());
}

TEST(Clusters, RejectsOutOfMaskSelection) {
  const VolumeGeometry g{4, 4, 4};
  const BrainMask mask = BrainMask::ellipsoid(g, 1.0);
  const std::vector<std::uint32_t> sel{
      static_cast<std::uint32_t>(mask.voxels())};
  EXPECT_THROW(find_clusters(mask, sel), Error);
}

// ---------------------------------------------------------------------------
// Volumetric generator
// ---------------------------------------------------------------------------

VolumetricDataset small_volumetric() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.informative = 24;
  return generate_synthetic_volumetric(spec, VolumeGeometry{10, 10, 8}, 3);
}

TEST(VolumetricGenerator, MaskDefinesVoxelCount) {
  const VolumetricDataset v = small_volumetric();
  EXPECT_EQ(v.dataset.voxels(), v.mask.voxels());
  EXPECT_EQ(v.dataset.informative_voxels().size(), 24u);
}

TEST(VolumetricGenerator, PlantsRequestedBlobCount) {
  const VolumetricDataset v = small_volumetric();
  ASSERT_EQ(v.planted_rois.size(), 3u);
  std::size_t total = 0;
  for (const auto& roi : v.planted_rois) total += roi.size();
  EXPECT_EQ(total, 24u);
  // Blobs are compact: each ROI is one connected component by construction.
  for (const auto& roi : v.planted_rois) {
    const auto sub = find_clusters(v.mask, roi.voxels);
    EXPECT_EQ(sub.size(), 1u);
  }
}

TEST(VolumetricGenerator, Deterministic) {
  const VolumetricDataset a = small_volumetric();
  const VolumetricDataset b = small_volumetric();
  EXPECT_EQ(a.dataset.informative_voxels(),
            b.dataset.informative_voxels());
  EXPECT_EQ(a.dataset.data()(3, 7), b.dataset.data()(3, 7));
}

TEST(VolumetricGenerator, RejectsDegenerateRequests) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.informative = 2;
  EXPECT_THROW(
      generate_synthetic_volumetric(spec, VolumeGeometry{10, 10, 8}, 3),
      Error);  // fewer informative voxels than blobs
}

}  // namespace
}  // namespace fcma::fmri
