#include <gtest/gtest.h>

#include <cmath>

#include "data/metrics.hpp"
#include "data/synthetic.hpp"
#include "learners/naive_bayes.hpp"
#include "multiview/cca.hpp"
#include "multiview/cotraining.hpp"
#include "multiview/views.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::multiview {
namespace {

TEST(Views, ProjectExtractsColumns) {
  data::Samples s;
  s.x = la::Matrix{{1, 2, 3}, {4, 5, 6}};
  s.y = {0, 1};
  data::Samples p = project(s, {2, 0});
  EXPECT_DOUBLE_EQ(p.x(0, 0), 3);
  EXPECT_DOUBLE_EQ(p.x(0, 1), 1);
  EXPECT_DOUBLE_EQ(p.x(1, 0), 6);
  EXPECT_EQ(p.y, s.y);
  EXPECT_EQ(project(s.x, {2, 0}).data(), p.x.data());
  EXPECT_THROW(project(s, {}), InvalidArgument);
  EXPECT_THROW(project(s, {7}), InvalidArgument);
  EXPECT_THROW(project(s.x, {}), InvalidArgument);
  EXPECT_THROW(project(s.x, {7}), InvalidArgument);
}

TEST(Views, ContiguousViewsCoverAllFeatures) {
  auto views = contiguous_views(7, 3);
  ASSERT_EQ(views.size(), 3u);
  std::size_t total = 0;
  for (const auto& v : views) total += v.size();
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(views[0].front(), 0u);
  EXPECT_EQ(views[2].back(), 6u);
}

TEST(Views, CorrelationOrderGroupsRedundantFeatures) {
  // Features 0 and 2 are copies; 1 is independent. 0 and 2 must end up
  // adjacent in correlation order.
  Rng rng(1);
  data::Samples s;
  s.x = la::Matrix(300, 3);
  for (std::size_t r = 0; r < 300; ++r) {
    const double v = rng.normal();
    s.x(r, 0) = v;
    s.x(r, 1) = rng.normal();
    s.x(r, 2) = v + rng.normal(0.0, 0.01);
  }
  auto order = correlation_order(s);
  ASSERT_EQ(order.size(), 3u);
  // Find positions of features 0 and 2.
  std::size_t p0 = 0, p2 = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (order[i] == 0) p0 = i;
    if (order[i] == 2) p2 = i;
  }
  EXPECT_EQ(std::max(p0, p2) - std::min(p0, p2), 1u);
}

TEST(Views, AbsCorrelationUnitDiagonal) {
  Rng rng(2);
  data::Samples s = data::make_blobs(100, 3, 2.0, 1.0, rng);
  la::Matrix corr = abs_correlation(s.x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(corr(i, i), 1.0, 1e-9);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(corr(i, j), 0.0);
      EXPECT_LE(corr(i, j), 1.0 + 1e-9);
    }
}

TEST(CoTraining, LearnsFromFewLabels) {
  Rng rng(3);
  // One draw (one concept) split into labeled / unlabeled / test.
  data::FacetedData fd = data::make_faceted_gaussian(
      600, {{2, 3.5, 1.0, true}, {2, 3.5, 1.0, true}}, rng);

  std::vector<std::size_t> labeled_idx, test_idx;
  for (std::size_t i = 0; i < 10; ++i) labeled_idx.push_back(i);
  for (std::size_t i = 400; i < 600; ++i) test_idx.push_back(i);
  data::Samples labeled = data::select_rows(fd.samples, labeled_idx);
  data::Samples test = data::select_rows(fd.samples, test_idx);

  la::Matrix unlabeled(390, fd.samples.dim());
  for (std::size_t r = 10; r < 400; ++r) {
    for (std::size_t c = 0; c < fd.samples.dim(); ++c) {
      unlabeled(r - 10, c) = fd.samples.x(r, c);
    }
  }

  CoTrainer co(fd.views[0], fd.views[1]);
  co.fit(labeled, unlabeled);
  EXPECT_GT(co.pseudo_labeled_count(), 20u);
  EXPECT_GE(co.accuracy(test), 0.9);
}

TEST(CoTraining, BeatsSingleViewWithFewLabels) {
  Rng rng(4);
  // View 2 is informative; a learner using only view 1 does worse than the
  // co-trained pair. Run a few seeds and compare averages for stability.
  double co_total = 0.0, single_total = 0.0;
  const int trials = 3;
  for (int trial = 0; trial < trials; ++trial) {
    // One draw per trial, split into labeled / unlabeled / test.
    data::FacetedData fd = data::make_faceted_gaussian(
        500, {{2, 2.5, 1.0, true}, {2, 2.5, 1.0, true}}, rng);
    std::vector<std::size_t> labeled_idx{0, 1, 2, 3, 4, 5};
    std::vector<std::size_t> test_idx;
    for (std::size_t i = 300; i < 500; ++i) test_idx.push_back(i);
    data::Samples labeled = data::select_rows(fd.samples, labeled_idx);
    data::Samples test = data::select_rows(fd.samples, test_idx);

    la::Matrix unlabeled(294, fd.samples.dim());
    for (std::size_t r = 6; r < 300; ++r) {
      for (std::size_t c = 0; c < fd.samples.dim(); ++c) {
        unlabeled(r - 6, c) = fd.samples.x(r, c);
      }
    }

    CoTrainer co(fd.views[0], fd.views[1]);
    co.fit(labeled, unlabeled);
    co_total += co.accuracy(test);

    learners::NaiveBayes nb;
    nb.fit(data::samples_to_dataset(project(labeled, fd.views[0])));
    single_total += nb.accuracy(
        data::samples_to_dataset(project(test, fd.views[0])));
  }
  EXPECT_GE(co_total / trials, single_total / trials - 0.02);
  EXPECT_GE(co_total / trials, 0.8);
}

TEST(CoTraining, Validation) {
  EXPECT_THROW(CoTrainer({}, {1}), InvalidArgument);
  EXPECT_THROW(CoTrainer({0}, {1}, CoTrainingParams{.min_confidence = 1.5}),
               InvalidArgument);
  CoTrainer co({0}, {1});
  la::Matrix x(2, 2);
  EXPECT_THROW(co.predict(x), InvalidArgument);  // not fitted
}

TEST(Cca, RecoversSharedSignal) {
  // x and y share a 1-D latent; CCA's top correlation should be near 1.
  Rng rng(5);
  const std::size_t n = 400;
  la::Matrix x(n, 3), y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double z = rng.normal();
    x(r, 0) = z + rng.normal(0.0, 0.1);
    x(r, 1) = -z + rng.normal(0.0, 0.1);
    x(r, 2) = rng.normal();  // noise
    y(r, 0) = 2.0 * z + rng.normal(0.0, 0.1);
    y(r, 1) = rng.normal();  // noise
  }
  CcaResult cca = fit_cca(x, y, 2);
  EXPECT_GT(cca.correlations[0], 0.95);
  EXPECT_LT(cca.correlations[1], 0.3);
  // Empirical correlation of the top projections matches.
  EXPECT_GT(std::fabs(canonical_correlation(cca, x, y, 0)), 0.95);
}

TEST(Cca, IndependentViewsHaveLowCorrelation) {
  Rng rng(6);
  const std::size_t n = 500;
  la::Matrix x(n, 2), y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      x(r, c) = rng.normal();
      y(r, c) = rng.normal();
    }
  }
  CcaResult cca = fit_cca(x, y, 2);
  EXPECT_LT(cca.correlations[0], 0.25);
}

TEST(Cca, ProjectionShapes) {
  Rng rng(7);
  la::Matrix x(50, 4), y(50, 3);
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.normal();
    for (std::size_t c = 0; c < 3; ++c) y(r, c) = rng.normal();
  }
  CcaResult cca = fit_cca(x, y, 10);  // capped at min(4, 3)
  EXPECT_EQ(cca.wx.cols(), 3u);
  EXPECT_EQ(cca_project_x(cca, x).cols(), 3u);
  EXPECT_EQ(cca_project_y(cca, y).cols(), 3u);
}

TEST(Cca, CorrelationsDescendAndBounded) {
  Rng rng(8);
  la::Matrix x(200, 3), y(200, 3);
  for (std::size_t r = 0; r < 200; ++r) {
    const double z = rng.normal();
    for (std::size_t c = 0; c < 3; ++c) {
      x(r, c) = z * (c == 0 ? 1.0 : 0.2) + rng.normal();
      y(r, c) = z * (c == 0 ? 1.0 : 0.2) + rng.normal();
    }
  }
  CcaResult cca = fit_cca(x, y, 3);
  for (std::size_t i = 0; i < cca.correlations.size(); ++i) {
    EXPECT_GE(cca.correlations[i], -1e-9);
    EXPECT_LE(cca.correlations[i], 1.0 + 1e-6);
    if (i > 0) {
      EXPECT_LE(cca.correlations[i], cca.correlations[i - 1] + 1e-9);
    }
  }
}

TEST(Cca, Validation) {
  la::Matrix x(10, 2), y(9, 2);
  EXPECT_THROW(fit_cca(x, y, 1), InvalidArgument);
  la::Matrix tiny(2, 2);
  EXPECT_THROW(fit_cca(tiny, tiny, 1), InvalidArgument);
}

}  // namespace
}  // namespace iotml::multiview
