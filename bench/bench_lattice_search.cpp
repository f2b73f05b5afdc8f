// E-SEARCH: the headline experiment of Section III — searching the partition
// lattice of the feature set for the best multiple-kernel configuration.
//
// Compares four strategies on faceted synthetic data:
//   exhaustive  : every partition of S-K (Bell(|S-K|) SVM evaluations)
//   greedy      : cover-by-cover refinement from (K, S-K)
//   chain       : the linear-in-|S-K| saturated-chain walk
//   smushing    : bottom-up merges of the most kernel-aligned block pair
//
// Expected shape: exhaustive evaluations explode with Bell(n) while chain
// stays linear; chain/greedy accuracy stays within a few points of the
// exhaustive optimum. Exhaustive runs only while Bell(n) <= 21,147 = Bell(9),
// so it is skipped at 10 and 12 features.

#include <cstdio>

#include "bench_report.hpp"
#include "combinatorics/counting.hpp"
#include "core/faceted_learner.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "util/strings.hpp"

namespace {

using namespace iotml;

struct Row {
  std::size_t features;
  std::string strategy;
  double accuracy;
  std::size_t evaluations;
  std::size_t grams;
  std::string partition;
};

Row run_strategy(core::SearchStrategy strategy, const data::Samples& train,
                 const data::Samples& test, std::size_t features) {
  core::FacetedLearnerConfig config;
  config.strategy = strategy;
  config.search.cv_folds = 3;
  core::FacetedLearner learner(config);
  learner.fit(train);
  return {features,
          core::strategy_name(strategy),
          learner.accuracy(test),
          learner.search_result().partitions_evaluated,
          learner.search_result().block_grams_computed,
          learner.partition().to_string()};
}

}  // namespace

int main() {
  std::printf("E-SEARCH: partition-lattice MKL search — evaluations vs accuracy\n");
  std::printf("(faceted data: half the views informative, half high-variance noise)\n\n");

  bench::BenchReport bench_report("lattice_search");
  Rng rng(7);  // rng-stream: data
  std::vector<Row> rows;

  for (std::size_t views = 2; views <= 6; ++views) {
    // Each view has 2 features: total n = 2 * views. Alternate informative /
    // noise views.
    std::vector<data::ViewSpec> specs;
    for (std::size_t v = 0; v < views; ++v) {
      if (v % 2 == 0) {
        specs.push_back({2, 3.0, 1.0, true});
      } else {
        specs.push_back({2, 0.0, 3.0, false});
      }
    }
    data::FacetedData fd = data::make_faceted_gaussian(220, specs, rng);
    Rng split_rng(99);  // rng-stream: splitter
    auto split = data::train_test_split(fd.samples.size(), 0.35, split_rng);
    data::Samples train = data::select_rows(fd.samples, split.train);
    data::Samples test = data::select_rows(fd.samples, split.test);
    const std::size_t n = fd.samples.dim();

    if (comb::bell_number(static_cast<unsigned>(n)) <= 21147) {
      rows.push_back(run_strategy(core::SearchStrategy::kExhaustive, train, test, n));
    }
    rows.push_back(
        run_strategy(core::SearchStrategy::kGreedyRefinement, train, test, n));
    rows.push_back(run_strategy(core::SearchStrategy::kChain, train, test, n));
    rows.push_back(run_strategy(core::SearchStrategy::kSmushing, train, test, n));
  }

  std::vector<std::vector<std::string>> table;
  for (const Row& r : rows) {
    table.push_back({std::to_string(r.features), r.strategy,
                     format_double(r.accuracy, 3), std::to_string(r.evaluations),
                     std::to_string(r.grams), r.partition});
  }
  std::printf("%s\n",
              render_table({"features", "strategy", "test-acc", "SVM evals",
                            "block grams", "chosen partition"},
                           table)
                  .c_str());

  std::printf("shape check: exhaustive evals follow Bell(n) (4->15, 6->203,\n"
              "8->4140, 10->115975[skipped]); chain and smushing stay <= n;\n"
              "accuracy of the cheap strategies tracks the exhaustive optimum.\n");

  std::size_t total_evals = 0;
  for (const Row& r : rows) {
    const std::string key = r.strategy + ".n" + std::to_string(r.features);
    bench_report.metric("accuracy." + key, r.accuracy);
    bench_report.metric("evaluations." + key, static_cast<double>(r.evaluations));
    total_evals += r.evaluations;
  }
  bench_report.metric("strategy_runs", static_cast<double>(rows.size()));
  bench_report.metric("svm_evals_per_s",
                      bench_report.throughput(static_cast<double>(total_evals)));
  bench_report.note("strategies", "exhaustive | greedy | chain | smushing");
  bench_report.write();
  return 0;
}
