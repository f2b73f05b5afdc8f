#pragma once

#include <memory>
#include <vector>

#include "learners/classifier.hpp"

namespace iotml::learners {

/// How the tree handles missing cells (the decision the paper's Section IV.A
/// frames as the single-player's strategic choice).
enum class MissingSplitPolicy {
  kMajorityBranch,  ///< missing rows follow the most populated child
  kOwnBranch        ///< missing values get a dedicated child branch
};

struct DecisionTreeParams {
  std::size_t max_depth = 12;
  std::size_t min_samples_leaf = 2;
  double min_gain = 1e-9;
  MissingSplitPolicy missing = MissingSplitPolicy::kMajorityBranch;
};

/// Pointer-free view of one trained tree node, for compilation into a
/// deployable artifact (src/deploy/). `children` holds indices into the
/// exported vector; kNoNode marks branches that were empty at training time
/// (prediction falls back to the node's own majority `label`).
struct ExportedTreeNode {
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  bool leaf = true;
  int label = 0;
  std::size_t feature = 0;
  bool numeric = false;
  double threshold = 0.0;
  std::vector<std::size_t> children;
  std::size_t missing_slot = 0;  ///< index into `children` for missing cells
};

/// Entropy-split decision tree over mixed numeric/categorical features.
/// Numeric features split on thresholds, categorical features split multiway
/// per category.
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeParams params = {});
  ~DecisionTree() override;
  DecisionTree(DecisionTree&&) noexcept;
  DecisionTree& operator=(DecisionTree&&) noexcept;

  void fit(const data::Dataset& train) override;
  int predict_row(const data::Dataset& ds, std::size_t row) const override;
  std::string name() const override { return "decision-tree"; }

  /// Number of nodes in the trained tree (cost proxy in the experiments).
  std::size_t node_count() const;
  std::size_t depth() const;

  /// Flatten the trained tree into pointer-free pre-order nodes (element 0
  /// is the root) for deployment compilation. Throws InvalidArgument before
  /// fit().
  std::vector<ExportedTreeNode> export_nodes() const;

  /// Training-time category dictionaries, one per feature (empty for
  /// numeric features) — categorical split children are indexed by them.
  const std::vector<std::vector<std::string>>& train_category_labels() const noexcept {
    return train_categories_;
  }

 private:
  struct Node;
  DecisionTreeParams params_;
  std::unique_ptr<Node> root_;
  /// Category labels per feature as seen at training time. Prediction maps a
  /// test cell's label through this table, because category *indices* are
  /// interned per dataset and are not stable across datasets.
  std::vector<std::vector<std::string>> train_categories_;

  std::unique_ptr<Node> build(const data::Dataset& ds,
                              const std::vector<std::size_t>& rows, std::size_t depth);
  std::size_t flatten(const Node& node, std::vector<ExportedTreeNode>& out) const;
};

}  // namespace iotml::learners
