#include "core/lattice_search.hpp"

#include <algorithm>
#include <numeric>

#include "combinatorics/counting.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::core {

PartitionEvaluator::PartitionEvaluator(const data::Samples& train,
                                       SearchOptions options)
    : train_(train), options_(options), cache_(train.x) {
  IOTML_CHECK(!train_.y.empty(), "PartitionEvaluator: unlabeled training set");
  IOTML_CHECK(options_.cv_folds >= 2, "PartitionEvaluator: cv_folds must be >= 2");
}

double PartitionEvaluator::score(const comb::SetPartition& partition) {
  ++evaluations_;
  // Each score is one node of the lattice expanded: a combined Gram plus a
  // full CV round of SVM trainings.
  static obs::Counter& nodes_expanded = obs::registry().counter("lattice.nodes_expanded");
  nodes_expanded.add();
  const la::Matrix combined =
      partition_gram(cache_, partition, train_.y, options_.weights);
  Rng cv_rng(options_.cv_seed);  // rng-stream: cv-folds (identical folds for every candidate)
  return kernels::cv_accuracy_precomputed(combined, train_.y, options_.cv_folds,
                                          cv_rng, options_.svm);
}

std::vector<double> PartitionEvaluator::weights_for(
    const comb::SetPartition& partition) {
  std::vector<double> weights;
  partition_gram(cache_, partition, train_.y, options_.weights, &weights);
  return weights;
}

SearchCone make_cone(std::size_t dim, const std::vector<std::size_t>& k_block) {
  IOTML_CHECK(dim >= 1, "make_cone: no features");
  std::vector<bool> in_k(dim, false);
  for (std::size_t f : k_block) {
    IOTML_CHECK(f < dim, "make_cone: K feature out of range");
    IOTML_CHECK(!in_k[f], "make_cone: duplicate K feature");
    in_k[f] = true;
  }
  SearchCone cone;
  cone.k_block = k_block;
  for (std::size_t f = 0; f < dim; ++f) {
    if (!in_k[f]) cone.rest.push_back(f);
  }
  IOTML_CHECK(!cone.rest.empty(), "make_cone: K covers every feature");
  return cone;
}

comb::SetPartition lift_to_features(const SearchCone& cone,
                                    const comb::SetPartition& rho) {
  IOTML_CHECK(rho.ground_size() == cone.rest.size(),
              "lift_to_features: rho ground size != |rest|");
  const std::size_t dim = cone.k_block.size() + cone.rest.size();
  std::vector<int> assignment(dim, -1);
  // K is one block (label = rho.num_blocks(), any unused label works).
  for (std::size_t f : cone.k_block) {
    assignment[f] = static_cast<int>(rho.num_blocks());
  }
  for (std::size_t pos = 0; pos < cone.rest.size(); ++pos) {
    assignment[cone.rest[pos]] = rho.block_of(pos);
  }
  return comb::SetPartition::from_assignment(assignment);
}

namespace {

SearchResult finalize(PartitionEvaluator& evaluator, SearchResult result, obs::Span& span,
                      std::uint64_t cones_pruned) {
  result.partitions_evaluated = evaluator.evaluations();
  result.block_grams_computed = evaluator.cache().block_grams_computed();
  result.best_weights = evaluator.weights_for(result.best);
  obs::registry().counter("lattice.searches_run").add();
  obs::registry().counter("lattice.cones_pruned").add(cones_pruned);
  span.arg("partitions_evaluated", static_cast<std::uint64_t>(result.partitions_evaluated));
  span.arg("block_grams_computed", static_cast<std::uint64_t>(result.block_grams_computed));
  span.arg("cones_pruned", cones_pruned);
  span.arg("best_score", result.best_score);
  span.arg("best_blocks", static_cast<std::uint64_t>(result.best.num_blocks()));
  return result;
}

}  // namespace

SearchResult exhaustive_cone_search(PartitionEvaluator& evaluator,
                                    const SearchCone& cone) {
  const std::size_t m = cone.rest.size();
  IOTML_CHECK(m <= 14, "exhaustive_cone_search: |S - K| too large to enumerate");
  const std::uint64_t cone_size = comb::bell_number(static_cast<unsigned>(m));
  IOTML_CHECK(cone_size <= evaluator.options().max_exhaustive,
              "exhaustive_cone_search: cone larger than options.max_exhaustive");

  obs::Span span("lattice.exhaustive_cone_search", "core");
  SearchResult result;
  result.best_score = -1.0;
  comb::PartitionEnumerator enumerate(m);
  while (enumerate.has_next()) {
    const comb::SetPartition rho = enumerate.next();
    const comb::SetPartition candidate = lift_to_features(cone, rho);
    const double s = evaluator.score(candidate);
    result.trajectory.push_back({candidate, s});
    if (s > result.best_score) {
      result.best_score = s;
      result.best = candidate;
    }
  }
  // Exhaustive enumeration prunes nothing by definition.
  return finalize(evaluator, std::move(result), span, 0);
}

namespace {

/// Covers below rho restricted to feasible split enumeration: all 2-way
/// splits for blocks up to 12 elements, contiguous (exploration-order)
/// prefix splits beyond that.
std::vector<comb::SetPartition> feasible_downward_covers(const comb::SetPartition& rho) {
  constexpr std::size_t kFullSplitLimit = 12;
  std::vector<comb::SetPartition> out;
  const auto blocks = rho.blocks();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto& block = blocks[b];
    if (block.size() < 2) continue;
    if (block.size() <= kFullSplitLimit) {
      const std::uint64_t limit = std::uint64_t{1} << (block.size() - 1);
      for (std::uint64_t mask = 1; mask < limit; ++mask) {
        std::vector<int> assignment = rho.rgs();
        const int fresh = static_cast<int>(rho.num_blocks());
        for (std::size_t j = 1; j < block.size(); ++j) {
          if (mask & (std::uint64_t{1} << (j - 1))) assignment[block[j]] = fresh;
        }
        out.push_back(comb::SetPartition::from_assignment(assignment));
      }
    } else {
      for (std::size_t cut = 1; cut < block.size(); ++cut) {
        std::vector<int> assignment = rho.rgs();
        const int fresh = static_cast<int>(rho.num_blocks());
        for (std::size_t j = cut; j < block.size(); ++j) assignment[block[j]] = fresh;
        out.push_back(comb::SetPartition::from_assignment(assignment));
      }
    }
  }
  return out;
}

}  // namespace

SearchResult greedy_refinement_search(PartitionEvaluator& evaluator,
                                      const SearchCone& cone) {
  obs::Span span("lattice.greedy_refinement_search", "core");
  SearchResult result;
  std::uint64_t cones_pruned = 0;  // evaluated covers whose sub-cones we never descend into

  // Start at the paper's two-block partition (K, S-K) — rho = one block.
  comb::SetPartition rho = comb::SetPartition::indiscrete(cone.rest.size());
  comb::SetPartition current = lift_to_features(cone, rho);
  double current_score = evaluator.score(current);
  result.trajectory.push_back({current, current_score});
  result.best = current;
  result.best_score = current_score;

  while (true) {
    const auto candidates = feasible_downward_covers(rho);
    if (candidates.empty()) break;

    double best_candidate_score = -1.0;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const comb::SetPartition lifted = lift_to_features(cone, candidates[i]);
      const double s = evaluator.score(lifted);
      result.trajectory.push_back({lifted, s});
      if (s > best_candidate_score) {
        best_candidate_score = s;
        best_index = i;
      }
    }
    if (best_candidate_score <
        current_score + evaluator.options().min_improvement) {
      cones_pruned += candidates.size();  // no cover descended into
      break;  // adding another kernel does not improve the system
    }
    cones_pruned += candidates.size() - 1;  // all covers but the chosen one
    rho = candidates[best_index];
    current = lift_to_features(cone, rho);
    current_score = best_candidate_score;
    if (current_score > result.best_score) {
      result.best = current;
      result.best_score = current_score;
    }
  }
  return finalize(evaluator, std::move(result), span, cones_pruned);
}

SearchResult chain_search(PartitionEvaluator& evaluator, const SearchCone& cone) {
  obs::Span span("lattice.chain_search", "core");
  const std::size_t m = cone.rest.size();
  SearchResult result;
  std::uint64_t cones_pruned = 0;

  // The C1-type saturated chain: rho_k isolates the first k features of R
  // (in exploration order) as singletons and keeps the suffix together.
  // rho_0 = {R} (the paper's (K, S-K) start), rho_{m-1} = discrete.
  std::size_t without_improvement = 0;
  result.best_score = -1.0;
  for (std::size_t k = 0; k < m; ++k) {
    std::vector<int> assignment(m, 0);
    for (std::size_t pos = 0; pos < m; ++pos) {
      assignment[pos] = static_cast<int>(std::min(pos, k));
    }
    const comb::SetPartition candidate =
        lift_to_features(cone, comb::SetPartition::from_assignment(assignment));
    const double s = evaluator.score(candidate);
    result.trajectory.push_back({candidate, s});
    if (s > result.best_score + evaluator.options().min_improvement) {
      result.best_score = s;
      result.best = candidate;
      without_improvement = 0;
    } else {
      if (s > result.best_score) {
        result.best_score = s;
        result.best = candidate;
      }
      ++without_improvement;
      if (without_improvement > evaluator.options().patience) {
        cones_pruned += static_cast<std::uint64_t>(m - 1 - k);  // chain steps never walked
        break;
      }
    }
  }
  return finalize(evaluator, std::move(result), span, cones_pruned);
}

SearchResult smushing_search(PartitionEvaluator& evaluator, const SearchCone& cone) {
  obs::Span span("lattice.smushing_search", "core");
  const std::size_t m = cone.rest.size();
  SearchResult result;
  result.best_score = -1.0;
  std::uint64_t cones_pruned = 0;

  // Current partition of R as block lists over rest *positions*.
  std::vector<std::vector<std::size_t>> blocks(m);
  for (std::size_t i = 0; i < m; ++i) blocks[i] = {i};

  auto to_partition = [&]() {
    std::vector<int> assignment(m, 0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (std::size_t pos : blocks[b]) assignment[pos] = static_cast<int>(b);
    }
    return comb::SetPartition::from_assignment(assignment);
  };
  auto features_of = [&](const std::vector<std::size_t>& positions) {
    std::vector<std::size_t> features;
    features.reserve(positions.size());
    for (std::size_t pos : positions) features.push_back(cone.rest[pos]);
    return features;
  };

  std::size_t without_improvement = 0;
  while (true) {
    const comb::SetPartition candidate = lift_to_features(cone, to_partition());
    const double s = evaluator.score(candidate);
    result.trajectory.push_back({candidate, s});
    if (s > result.best_score + evaluator.options().min_improvement) {
      result.best_score = s;
      result.best = candidate;
      without_improvement = 0;
    } else {
      if (s > result.best_score) {
        result.best_score = s;
        result.best = candidate;
      }
      if (++without_improvement > evaluator.options().patience) {
        if (blocks.size() > 1) {
          cones_pruned += static_cast<std::uint64_t>(blocks.size() - 1);  // merges never tried
        }
        break;
      }
    }
    if (blocks.size() <= 1) break;

    // Smush the most mutually aligned pair of blocks (cheap Gram alignment,
    // no SVM). This is the lattice join with the atom identifying that pair.
    std::vector<la::Matrix> grams;
    grams.reserve(blocks.size());
    for (const auto& block : blocks) {
      grams.push_back(evaluator.cache().gram_for(features_of(block)));
    }
    double best_alignment = -2.0;
    std::size_t merge_a = 0, merge_b = 1;
    for (std::size_t a = 0; a < blocks.size(); ++a) {
      for (std::size_t b = a + 1; b < blocks.size(); ++b) {
        const double alignment = kernels::alignment(grams[a], grams[b]);
        if (alignment > best_alignment) {
          best_alignment = alignment;
          merge_a = a;
          merge_b = b;
        }
      }
    }
    blocks[merge_a].insert(blocks[merge_a].end(), blocks[merge_b].begin(),
                           blocks[merge_b].end());
    blocks.erase(blocks.begin() + static_cast<std::ptrdiff_t>(merge_b));
  }
  return finalize(evaluator, std::move(result), span, cones_pruned);
}

}  // namespace iotml::core
