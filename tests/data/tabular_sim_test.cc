#include <gtest/gtest.h>

#include <cmath>

#include "data/housing_sim.h"
#include "data/taxi_sim.h"
#include "nn/sequential.h"
#include "util/stats.h"

namespace tasfar {
namespace {

std::vector<double> Column(const Dataset& ds, size_t col) {
  std::vector<double> out;
  out.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) out.push_back(ds.inputs.At(i, col));
  return out;
}

std::vector<double> Labels(const Dataset& ds) {
  std::vector<double> out;
  out.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) out.push_back(ds.targets.At(i, 0));
  return out;
}

// --- Housing ----------------------------------------------------------

HousingSimConfig TinyHousing() {
  HousingSimConfig cfg;
  cfg.source_samples = 500;
  cfg.target_samples = 300;
  return cfg;
}

TEST(HousingSimTest, ShapesAndDeterminism) {
  HousingSimulator sim(TinyHousing(), 3);
  Dataset src = sim.GenerateSource();
  Dataset tgt = sim.GenerateTarget();
  src.Validate();
  tgt.Validate();
  EXPECT_EQ(src.size(), 500u);
  EXPECT_EQ(tgt.size(), 300u);
  EXPECT_EQ(src.inputs.dim(1), static_cast<size_t>(kNumHousingFeatures));
  HousingSimulator sim2(TinyHousing(), 3);
  EXPECT_DOUBLE_EQ(src.inputs.MaxAbsDiff(sim2.GenerateSource().inputs), 0.0);
}

TEST(HousingSimTest, SpatialSplitRespected) {
  HousingSimulator sim(TinyHousing(), 5);
  Dataset src = sim.GenerateSource();
  Dataset tgt = sim.GenerateTarget();
  const double threshold = kCoastalThreshold;
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_GE(src.inputs.At(i, kCoastDistance), threshold);
  }
  for (size_t i = 0; i < tgt.size(); ++i) {
    EXPECT_LT(tgt.inputs.At(i, kCoastDistance), threshold);
  }
}

TEST(HousingSimTest, CoastalPricesHigher) {
  HousingSimulator sim(TinyHousing(), 7);
  EXPECT_GT(stats::Mean(Labels(sim.GenerateTarget())),
            stats::Mean(Labels(sim.GenerateSource())) * 1.3);
}

TEST(HousingSimTest, IncomePredictsPriceWithinSource) {
  HousingSimulator sim(TinyHousing(), 9);
  Dataset src = sim.GenerateSource();
  EXPECT_GT(stats::PearsonCorrelation(Column(src, kMedianIncome),
                                      Labels(src)),
            0.5);
}

TEST(HousingSimTest, OceanViewRareInland) {
  HousingSimulator sim(TinyHousing(), 11);
  Dataset src = sim.GenerateSource();
  Dataset tgt = sim.GenerateTarget();
  EXPECT_LT(stats::Mean(Column(src, kOceanViewScore)), 0.1);
  // The coastal strip sees the ocean noticeably more often than inland.
  EXPECT_GT(stats::Mean(Column(tgt, kOceanViewScore)),
            1.5 * stats::Mean(Column(src, kOceanViewScore)));
}

TEST(HousingSimTest, PricesBoundedAndFinite) {
  HousingSimulator sim(TinyHousing(), 13);
  Dataset tgt = sim.GenerateTarget();
  EXPECT_TRUE(tgt.targets.AllFinite());
  EXPECT_GE(tgt.targets.Min(), 0.2);
  EXPECT_LE(tgt.targets.Max(), 12.0);
}

// --- Taxi -------------------------------------------------------------

TaxiSimConfig TinyTaxi() {
  TaxiSimConfig cfg;
  cfg.source_samples = 500;
  cfg.target_samples = 300;
  return cfg;
}

TEST(TaxiSimTest, ShapesAndDeterminism) {
  TaxiSimulator sim(TinyTaxi(), 3);
  Dataset src = sim.GenerateSource();
  Dataset tgt = sim.GenerateTarget();
  src.Validate();
  tgt.Validate();
  EXPECT_EQ(src.inputs.dim(1), static_cast<size_t>(kNumTaxiFeatures));
  TaxiSimulator sim2(TinyTaxi(), 3);
  EXPECT_DOUBLE_EQ(tgt.inputs.MaxAbsDiff(sim2.GenerateTarget().inputs), 0.0);
}

TEST(TaxiSimTest, ManhattanBoxRespected) {
  TaxiSimulator sim(TinyTaxi(), 5);
  Dataset tgt = sim.GenerateTarget();
  for (size_t i = 0; i < tgt.size(); ++i) {
    EXPECT_LT(tgt.inputs.At(i, kPickupX), 0.3);
    EXPECT_LT(tgt.inputs.At(i, kPickupY), 0.3);
  }
  Dataset src = sim.GenerateSource();
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_FALSE(src.inputs.At(i, kPickupX) < 0.3 &&
                 src.inputs.At(i, kPickupY) < 0.3);
  }
}

TEST(TaxiSimTest, ManhattanTripsShorterDistance) {
  TaxiSimulator sim(TinyTaxi(), 7);
  // Median: robust to the glitched (inflated) recorded vectors.
  auto median_dist = [](const Dataset& ds) {
    std::vector<double> d;
    for (size_t i = 0; i < ds.size(); ++i) {
      const double dx = ds.inputs.At(i, kDropoffDx);
      const double dy = ds.inputs.At(i, kDropoffDy);
      d.push_back(std::sqrt(dx * dx + dy * dy));
    }
    return stats::Median(std::move(d));
  };
  EXPECT_LT(median_dist(sim.GenerateTarget()),
            median_dist(sim.GenerateSource()) * 0.6);
}

TEST(TaxiSimTest, ManhattanDurationsClusterShort) {
  // Manhattan trips are short hops, so the target duration distribution
  // concentrates below the source's — the prior TASFAR exploits.
  TaxiSimulator sim(TinyTaxi(), 9);
  EXPECT_LT(stats::Median(Labels(sim.GenerateTarget())),
            stats::Median(Labels(sim.GenerateSource())) * 0.8);
}

TEST(TaxiSimTest, GlitchesInflateRecordedDistanceTail) {
  // ~30% of Manhattan rows carry multipath-inflated trip vectors: the
  // recorded-distance distribution becomes heavy-tailed (mean >> median).
  TaxiSimulator sim(TinyTaxi(), 10);
  Dataset tgt = sim.GenerateTarget();
  std::vector<double> d;
  for (size_t i = 0; i < tgt.size(); ++i) {
    const double dx = tgt.inputs.At(i, kDropoffDx);
    const double dy = tgt.inputs.At(i, kDropoffDy);
    d.push_back(std::sqrt(dx * dx + dy * dy));
  }
  EXPECT_GT(stats::Mean(d), 2.5 * stats::Median(d));
}

TEST(TaxiSimTest, HourFeaturesOnUnitCircle) {
  TaxiSimulator sim(TinyTaxi(), 11);
  Dataset src = sim.GenerateSource();
  for (size_t i = 0; i < src.size(); ++i) {
    const double s = src.inputs.At(i, kHourSin);
    const double c = src.inputs.At(i, kHourCos);
    EXPECT_NEAR(s * s + c * c, 1.0, 1e-9);
  }
}

TEST(TaxiSimTest, DurationsWithinBounds) {
  TaxiSimulator sim(TinyTaxi(), 13);
  Dataset tgt = sim.GenerateTarget();
  EXPECT_GE(tgt.targets.Min(), 1.0);
  EXPECT_LE(tgt.targets.Max(), 180.0);
}

// --- Shared model builder ------------------------------------------------

TEST(BuildTabularModelTest, ShapeAndStochasticDropout) {
  Rng rng(17);
  auto model = BuildTabularModel(8, &rng);
  Tensor x = Tensor::RandomNormal({4, 8}, &rng);
  Tensor y = model->Forward(x, false);
  EXPECT_EQ(y.dim(1), 1u);
  EXPECT_GT(model->Forward(x, true).MaxAbsDiff(model->Forward(x, true)),
            0.0);
}

}  // namespace
}  // namespace tasfar
