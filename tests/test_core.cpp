#include <gtest/gtest.h>

#include "combinatorics/counting.hpp"
#include "core/faceted_learner.hpp"
#include "core/lattice_search.hpp"
#include "core/partition_kernels.hpp"
#include "core/pipeline_game.hpp"
#include "data/synthetic.hpp"
#include "multiview/views.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace iotml::core {
namespace {

/// A faceted dataset where the facet structure matters: a strong view, a
/// weak view, and a high-variance noise view.
data::FacetedData test_problem(std::size_t n, Rng& rng) {
  return data::make_faceted_gaussian(
      n, {{2, 3.0, 1.0, true}, {2, 2.0, 1.0, true}, {2, 0.0, 3.0, false}}, rng);
}

TEST(BlockGramCache, CachesByCanonicalBlock) {
  Rng rng(1);
  data::Samples s = data::make_blobs(30, 4, 2.0, 1.0, rng);
  BlockGramCache cache(s.x);
  const la::Matrix a = cache.gram_for({0, 2});
  const la::Matrix b = cache.gram_for({2, 0});  // same block, different order
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(cache.block_grams_computed(), 1u);
  EXPECT_EQ(cache.lookups(), 2u);
  cache.gram_for({1});
  EXPECT_EQ(cache.block_grams_computed(), 2u);
}

TEST(BlockGramCache, EveryBlockMatchesDirectRbfGram) {
  // Every block of a 5-feature set, passed in descending order. Feature 3 is
  // constant, so block {3} takes the median heuristic's gamma = 1 fallback.
  Rng rng(6);
  data::Samples s = data::make_blobs(24, 5, 2.0, 1.0, rng);
  for (std::size_t i = 0; i < s.x.rows(); ++i) s.x(i, 3) = 0.5;
  BlockGramCache cache(s.x);
  for (unsigned mask = 1; mask < 32u; ++mask) {
    std::vector<std::size_t> sorted;
    for (std::size_t f = 0; f < 5; ++f) {
      if (mask & (1u << f)) sorted.push_back(f);
    }
    const std::vector<std::size_t> unsorted(sorted.rbegin(), sorted.rend());
    const la::Matrix projected = multiview::project(s.x, sorted);
    const double gamma = cache.gamma_for(unsorted);
    const la::Matrix gram = cache.gram_for(unsorted);
    EXPECT_EQ(gram.data(), kernels::gram(kernels::RbfKernel(gamma), projected).data())
        << "block mask " << mask;
    // The block kernel object used for prediction yields the same Gram.
    const kernels::SubsetKernel block_kernel(std::make_unique<kernels::RbfKernel>(gamma), sorted);
    EXPECT_EQ(gram.data(), kernels::gram(block_kernel, s.x).data()) << "block mask " << mask;
  }
  EXPECT_EQ(cache.gamma_for({3}), 1.0);
  EXPECT_EQ(cache.block_grams_computed(), 31u);
}

TEST(BlockGramCache, Validation) {
  Rng rng(2);
  data::Samples s = data::make_blobs(10, 2, 2.0, 1.0, rng);
  BlockGramCache cache(s.x);
  EXPECT_THROW(cache.gram_for({}), InvalidArgument);
  EXPECT_THROW(cache.gram_for({5}), InvalidArgument);
}

TEST(PartitionGram, MatchesManualCombination) {
  Rng rng(3);
  data::Samples s = data::make_blobs(25, 3, 3.0, 1.0, rng);
  BlockGramCache cache(s.x);
  auto partition = comb::SetPartition::from_blocks({{0, 1}, {2}}, 3);

  std::vector<double> weights;
  la::Matrix combined =
      partition_gram(cache, partition, s.y, WeightRule::kUniform, &weights);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0], 0.5);

  la::Matrix manual = cache.gram_for({0, 1}).scaled(0.5) + cache.gram_for({2}).scaled(0.5);
  EXPECT_LT(combined.max_abs_diff(manual), 1e-12);
}

TEST(PartitionGram, AlignmentWeightsFavorSignalBlock) {
  Rng rng(4);
  data::FacetedData fd = test_problem(150, rng);
  BlockGramCache cache(fd.samples.x);
  auto truth = comb::SetPartition::from_blocks(
      {fd.views[0], fd.views[1], fd.views[2]}, 6);
  std::vector<double> weights;
  partition_gram(cache, truth, fd.samples.y, WeightRule::kAlignment, &weights);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_GT(weights[0], weights[2]);  // strong signal > pure noise
}

TEST(PartitionKernelObject, AgreesWithCombinedGram) {
  Rng rng(5);
  data::Samples s = data::make_blobs(20, 3, 3.0, 1.0, rng);
  BlockGramCache cache(s.x);
  auto partition = comb::SetPartition::from_blocks({{0}, {1, 2}}, 3);
  std::vector<double> weights;
  la::Matrix combined =
      partition_gram(cache, partition, s.y, WeightRule::kUniform, &weights);
  auto kernel = partition_kernel(cache, partition, weights);
  la::Matrix direct = kernels::gram(*kernel, s.x);
  EXPECT_LT(combined.max_abs_diff(direct), 1e-10);
}

TEST(SearchCone, MakeConeAndLift) {
  SearchCone cone = make_cone(5, {1, 3});
  EXPECT_EQ(cone.rest, (std::vector<std::size_t>{0, 2, 4}));

  // rho = {{0,1},{2}} over rest positions -> features {0,2} together, {4}
  // alone, K = {1,3} one block.
  auto rho = comb::SetPartition::from_blocks({{0, 1}, {2}}, 3);
  auto lifted = lift_to_features(cone, rho);
  EXPECT_EQ(lifted.ground_size(), 5u);
  EXPECT_TRUE(lifted.together(0, 2));
  EXPECT_TRUE(lifted.together(1, 3));
  EXPECT_FALSE(lifted.together(0, 4));
  EXPECT_FALSE(lifted.together(0, 1));
  EXPECT_EQ(lifted.num_blocks(), 3u);
}

TEST(SearchCone, Validation) {
  EXPECT_THROW(make_cone(3, {5}), InvalidArgument);
  EXPECT_THROW(make_cone(3, {0, 0}), InvalidArgument);
  EXPECT_THROW(make_cone(2, {0, 1}), InvalidArgument);  // K covers everything
}

TEST(Search, ExhaustiveEvaluatesWholeCone) {
  Rng rng(6);
  data::FacetedData fd = data::make_faceted_gaussian(
      80, {{2, 3.0, 1.0, true}, {2, 0.0, 2.0, false}}, rng);
  PartitionEvaluator evaluator(fd.samples, SearchOptions{.cv_folds = 3});
  SearchCone cone = make_cone(4, {});
  SearchResult result = exhaustive_cone_search(evaluator, cone);
  EXPECT_EQ(result.partitions_evaluated, comb::bell_number(4));  // 15
  EXPECT_EQ(result.trajectory.size(), 15u);
  EXPECT_GT(result.best_score, 0.6);
}

TEST(Search, ExhaustiveRespectsGuard) {
  Rng rng(7);
  data::Samples s = data::make_blobs(40, 10, 3.0, 1.0, rng);
  SearchOptions options;
  options.max_exhaustive = 100;  // Bell(10) = 115975 >> 100
  PartitionEvaluator evaluator(s, options);
  SearchCone cone = make_cone(10, {});
  EXPECT_THROW(exhaustive_cone_search(evaluator, cone), InvalidArgument);
}

TEST(Search, GreedyStopsWhenNoImprovement) {
  Rng rng(8);
  data::FacetedData fd = test_problem(120, rng);
  PartitionEvaluator evaluator(fd.samples, SearchOptions{.cv_folds = 3});
  SearchCone cone = make_cone(6, {});
  SearchResult result = greedy_refinement_search(evaluator, cone);
  EXPECT_GE(result.trajectory.size(), 1u);
  EXPECT_GT(result.best_score, 0.6);
  // Trajectory starts at the coarsest partition (K, S-K) = one block here.
  EXPECT_EQ(result.trajectory.front().partition.num_blocks(), 1u);
}

TEST(Search, ChainIsLinearInRest) {
  Rng rng(9);
  data::Samples s = data::make_blobs(60, 8, 3.0, 1.0, rng);
  SearchOptions options;
  options.cv_folds = 3;
  options.patience = 100;  // disable early stop to observe the full chain
  PartitionEvaluator evaluator(s, options);
  SearchCone cone = make_cone(8, {});
  SearchResult result = chain_search(evaluator, cone);
  EXPECT_EQ(result.partitions_evaluated, 8u);  // exactly |R|
  // First chain element is the one-block partition, last is discrete.
  EXPECT_EQ(result.trajectory.front().partition.num_blocks(), 1u);
  EXPECT_EQ(result.trajectory.back().partition.num_blocks(), 8u);
}

TEST(Search, ChainEarlyStopsWithPatience) {
  Rng rng(10);
  data::Samples s = data::make_blobs(60, 8, 4.0, 0.8, rng);
  SearchOptions options;
  options.cv_folds = 3;
  options.patience = 1;
  PartitionEvaluator evaluator(s, options);
  SearchCone cone = make_cone(8, {});
  SearchResult result = chain_search(evaluator, cone);
  EXPECT_LE(result.partitions_evaluated, 8u);
}

TEST(Search, ChainFarCheaperThanExhaustive) {
  Rng rng(11);
  data::FacetedData fd = data::make_faceted_gaussian(
      70, {{3, 3.0, 1.0, true}, {3, 0.0, 2.0, false}}, rng);

  PartitionEvaluator ev_exhaustive(fd.samples, SearchOptions{.cv_folds = 3});
  SearchResult exhaustive =
      exhaustive_cone_search(ev_exhaustive, make_cone(6, {}));

  PartitionEvaluator ev_chain(fd.samples, SearchOptions{.cv_folds = 3});
  SearchResult chain = chain_search(ev_chain, make_cone(6, {}));

  EXPECT_EQ(exhaustive.partitions_evaluated, comb::bell_number(6));  // 203
  EXPECT_LE(chain.partitions_evaluated, 6u);
  // The chain finds a partition within a few points of the exhaustive best.
  EXPECT_GE(chain.best_score, exhaustive.best_score - 0.08);
}

TEST(FacetedLearnerTest, LearnsAndPredicts) {
  Rng rng(12);
  data::FacetedData fd = test_problem(300, rng);
  auto split_idx = [&](std::size_t from, std::size_t to) {
    std::vector<std::size_t> idx;
    for (std::size_t i = from; i < to; ++i) idx.push_back(i);
    return idx;
  };
  data::Samples train = data::select_rows(fd.samples, split_idx(0, 200));
  data::Samples test = data::select_rows(fd.samples, split_idx(200, 300));

  FacetedLearner learner;
  learner.fit(train);
  EXPECT_GE(learner.accuracy(test), 0.8);
  EXPECT_GE(learner.partition().num_blocks(), 1u);
  EXPECT_GT(learner.search_result().partitions_evaluated, 0u);
}

TEST(FacetedLearnerTest, ExhaustiveStrategyOnSmallProblem) {
  Rng rng(13);
  data::FacetedData fd = data::make_faceted_gaussian(
      160, {{2, 3.0, 1.0, true}, {2, 0.0, 3.0, false}}, rng);
  data::Samples train = data::select_rows(fd.samples, [] {
    std::vector<std::size_t> v;
    for (std::size_t i = 0; i < 120; ++i) v.push_back(i);
    return v;
  }());
  data::Samples test = data::select_rows(fd.samples, [] {
    std::vector<std::size_t> v;
    for (std::size_t i = 120; i < 160; ++i) v.push_back(i);
    return v;
  }());

  FacetedLearnerConfig config;
  config.strategy = SearchStrategy::kExhaustive;
  FacetedLearner learner(config);
  learner.fit(train);
  EXPECT_EQ(learner.search_result().partitions_evaluated, comb::bell_number(4));
  EXPECT_GE(learner.accuracy(test), 0.8);
}

TEST(FacetedLearnerTest, RoughKSelectionRuns) {
  Rng rng(14);
  data::FacetedData fd = test_problem(200, rng);
  FacetedLearnerConfig config;
  config.rough_select_k = true;
  config.strategy = SearchStrategy::kChain;
  FacetedLearner learner(config);
  learner.fit(fd.samples);
  // K selected and excluded from the explored rest.
  EXPECT_LE(learner.k_block().size(), 2u);
  EXPECT_GE(learner.accuracy(fd.samples), 0.7);  // in-sample sanity
}

TEST(FacetedLearnerTest, StrategyNames) {
  EXPECT_EQ(strategy_name(SearchStrategy::kExhaustive), "exhaustive");
  EXPECT_EQ(strategy_name(SearchStrategy::kGreedyRefinement), "greedy-refinement");
  EXPECT_EQ(strategy_name(SearchStrategy::kChain), "chain");
}

TEST(FacetedLearnerTest, Validation) {
  FacetedLearner learner;
  EXPECT_THROW(learner.partition(), InvalidArgument);
  data::Samples unlabeled;
  unlabeled.x = la::Matrix(4, 2);
  EXPECT_THROW(learner.fit(unlabeled), InvalidArgument);
}

TEST(PipelineGame, EmpiricalGameSolves) {
  Rng rng(15);
  data::Dataset train = data::make_phone_fleet(500, 0.05, rng);
  data::Dataset test = data::make_phone_fleet(250, 0.05, rng);
  // Corrupt with missing cells so preprocessing matters.
  for (auto* ds : {&train, &test}) {
    for (std::size_t f = 0; f < ds->num_columns(); ++f) {
      for (std::size_t r = 0; r < ds->rows(); ++r) {
        if (rng.bernoulli(0.2)) ds->column(f).set_missing(r);
      }
    }
  }

  PipelineGameResult result = build_pipeline_game(train, test, {}, rng);
  EXPECT_EQ(result.game.rows(), 5u);
  EXPECT_EQ(result.game.cols(), 4u);

  // All accuracies are meaningful probabilities.
  for (std::size_t i = 0; i < result.accuracy.rows(); ++i) {
    for (std::size_t j = 0; j < result.accuracy.cols(); ++j) {
      EXPECT_GE(result.accuracy(i, j), 0.3);
      EXPECT_LE(result.accuracy(i, j), 1.0);
    }
  }

  // The social optimum's welfare is >= Nash welfare (by definition).
  const double nash_welfare = game::social_welfare(result.game, result.nash);
  const double social_welfare_value = game::social_welfare(result.game, result.social);
  EXPECT_GE(social_welfare_value, nash_welfare - 1e-9);

  // The Stackelberg leader does at least as well as at the (first) Nash.
  EXPECT_GE(result.stackelberg.leader_payoff,
            result.game.a(result.nash.row, result.nash.col) - 1e-9);
}

TEST(PipelineGame, Validation) {
  Rng rng(16);
  data::Dataset labeled = data::make_phone_fleet(50, 0.0, rng);
  data::Dataset unlabeled;
  unlabeled.add_categorical_column("x").push_category("a");
  EXPECT_THROW(build_pipeline_game(labeled, unlabeled, {}, rng), InvalidArgument);
  PipelineGameConfig empty;
  empty.preprocessor.clear();
  EXPECT_THROW(build_pipeline_game(labeled, labeled, empty, rng), InvalidArgument);
}

}  // namespace
}  // namespace iotml::core
