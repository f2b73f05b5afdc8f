#include "learners/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::learners {

namespace {

double entropy_of_counts(const std::map<int, std::size_t>& counts, std::size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& [label, count] : counts) {
    const double p = static_cast<double>(count) / static_cast<double>(total);
    if (p > 0.0) h -= p * std::log2(p);
  }
  return h;
}

double label_entropy(const data::Dataset& ds, const std::vector<std::size_t>& rows) {
  std::map<int, std::size_t> counts;
  for (std::size_t r : rows) ++counts[ds.label(r)];
  return entropy_of_counts(counts, rows.size());
}

int majority_label(const data::Dataset& ds, const std::vector<std::size_t>& rows) {
  std::map<int, std::size_t> counts;
  for (std::size_t r : rows) ++counts[ds.label(r)];
  int best = 0;
  std::size_t best_count = 0;
  for (const auto& [label, count] : counts) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

bool is_pure(const data::Dataset& ds, const std::vector<std::size_t>& rows) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (ds.label(rows[i]) != ds.label(rows[0])) return false;
  }
  return true;
}

}  // namespace

/// Internal node. Numeric splits: children[0] = (value <= threshold),
/// children[1] = (value > threshold). Categorical splits: one child per
/// category index (children may be null for unseen categories -> leaf
/// fallback). `missing_child` routes rows whose split feature is missing.
struct DecisionTree::Node {
  bool leaf = true;
  int label = 0;

  std::size_t feature = 0;
  bool numeric = false;
  double threshold = 0.0;
  std::vector<std::unique_ptr<Node>> children;
  std::size_t missing_child = 0;

  std::size_t count_nodes() const {
    std::size_t total = 1;
    for (const auto& c : children) {
      if (c) total += c->count_nodes();
    }
    return total;
  }
  std::size_t max_depth() const {
    std::size_t deepest = 0;
    for (const auto& c : children) {
      if (c) deepest = std::max(deepest, c->max_depth());
    }
    return deepest + 1;
  }
};

DecisionTree::DecisionTree(DecisionTreeParams params) : params_(params) {
  IOTML_CHECK(params.max_depth >= 1, "DecisionTree: max_depth must be >= 1");
  IOTML_CHECK(params.min_samples_leaf >= 1, "DecisionTree: min_samples_leaf must be >= 1");
}

DecisionTree::~DecisionTree() = default;
DecisionTree::DecisionTree(DecisionTree&&) noexcept = default;
DecisionTree& DecisionTree::operator=(DecisionTree&&) noexcept = default;

namespace {

struct SplitCandidate {
  double gain = -1.0;
  std::size_t feature = 0;
  bool numeric = false;
  double threshold = 0.0;
  // Partition of rows into children; last entry = missing rows (for
  // kOwnBranch) or empty (missing rows were merged into a child already).
  std::vector<std::vector<std::size_t>> child_rows;
  std::size_t missing_child = 0;
};

/// Split rows on a categorical feature: one bucket per category. Missing rows
/// go to `missing_rows`.
void bucket_categorical(const data::Dataset& ds, std::size_t feature,
                        const std::vector<std::size_t>& rows,
                        std::vector<std::vector<std::size_t>>& buckets,
                        std::vector<std::size_t>& missing_rows) {
  const data::Column& col = ds.column(feature);
  buckets.assign(col.categories().size(), {});
  missing_rows.clear();
  for (std::size_t r : rows) {
    if (col.is_missing(r)) {
      missing_rows.push_back(r);
    } else {
      buckets[col.category(r)].push_back(r);
    }
  }
}

double weighted_child_entropy(const data::Dataset& ds,
                              const std::vector<std::vector<std::size_t>>& buckets,
                              std::size_t total) {
  double h = 0.0;
  for (const auto& bucket : buckets) {
    if (bucket.empty()) continue;
    h += (static_cast<double>(bucket.size()) / static_cast<double>(total)) *
         label_entropy(ds, bucket);
  }
  return h;
}

/// Append missing rows either to the largest child or to a dedicated child,
/// returning the index of the child that absorbs future missing values.
std::size_t attach_missing(std::vector<std::vector<std::size_t>>& children,
                           std::vector<std::size_t> missing_rows,
                           MissingSplitPolicy policy) {
  if (policy == MissingSplitPolicy::kOwnBranch && !missing_rows.empty()) {
    children.push_back(std::move(missing_rows));
    return children.size() - 1;
  }
  std::size_t largest = 0;
  for (std::size_t i = 1; i < children.size(); ++i) {
    if (children[i].size() > children[largest].size()) largest = i;
  }
  children[largest].insert(children[largest].end(), missing_rows.begin(),
                           missing_rows.end());
  return largest;
}

}  // namespace

std::unique_ptr<DecisionTree::Node> DecisionTree::build(
    const data::Dataset& ds, const std::vector<std::size_t>& rows, std::size_t depth) {
  auto node = std::make_unique<Node>();
  node->label = majority_label(ds, rows);
  if (depth >= params_.max_depth || rows.size() < 2 * params_.min_samples_leaf ||
      is_pure(ds, rows)) {
    return node;
  }

  const double parent_entropy = label_entropy(ds, rows);
  SplitCandidate best;

  for (std::size_t f = 0; f < ds.num_columns(); ++f) {
    const data::Column& col = ds.column(f);
    std::vector<std::size_t> missing_rows;

    if (col.type() == data::ColumnType::kCategorical) {
      std::vector<std::vector<std::size_t>> buckets;
      bucket_categorical(ds, f, rows, buckets, missing_rows);
      std::size_t nonempty = 0;
      for (const auto& b : buckets) {
        if (!b.empty()) ++nonempty;
      }
      if (nonempty < 2) continue;

      std::vector<std::vector<std::size_t>> children = buckets;
      const std::size_t missing_child =
          attach_missing(children, missing_rows, params_.missing);
      const double h = weighted_child_entropy(ds, children, rows.size());
      const double gain = parent_entropy - h;
      if (gain > best.gain) {
        best = SplitCandidate{gain, f, false, 0.0, std::move(children), missing_child};
      }
    } else {
      // Numeric: sort present values, try midpoints between distinct
      // neighbouring values.
      std::vector<std::size_t> present;
      for (std::size_t r : rows) {
        if (col.is_missing(r)) {
          missing_rows.push_back(r);
        } else {
          present.push_back(r);
        }
      }
      if (present.size() < 2) continue;
      std::sort(present.begin(), present.end(), [&](std::size_t a, std::size_t b) {
        return col.numeric(a) < col.numeric(b);
      });
      for (std::size_t i = 1; i < present.size(); ++i) {
        const double lo = col.numeric(present[i - 1]);
        const double hi = col.numeric(present[i]);
        if (hi <= lo) continue;
        const double threshold = 0.5 * (lo + hi);
        std::vector<std::vector<std::size_t>> children(2);
        for (std::size_t r : present) {
          children[col.numeric(r) <= threshold ? 0 : 1].push_back(r);
        }
        const std::size_t missing_child =
            attach_missing(children, missing_rows, params_.missing);
        const double h = weighted_child_entropy(ds, children, rows.size());
        const double gain = parent_entropy - h;
        if (gain > best.gain) {
          best = SplitCandidate{gain, f, true, threshold, children, missing_child};
        }
      }
    }
  }

  if (best.gain < params_.min_gain) return node;
  // Refuse splits that produce an undersized nonempty child.
  for (const auto& child : best.child_rows) {
    if (!child.empty() && child.size() < params_.min_samples_leaf) return node;
  }

  static obs::Counter& tree_splits = obs::registry().counter("learners.tree_splits");
  tree_splits.add();
  node->leaf = false;
  node->feature = best.feature;
  node->numeric = best.numeric;
  node->threshold = best.threshold;
  node->missing_child = best.missing_child;
  node->children.resize(best.child_rows.size());
  for (std::size_t i = 0; i < best.child_rows.size(); ++i) {
    if (!best.child_rows[i].empty()) {
      node->children[i] = build(ds, best.child_rows[i], depth + 1);
    }
  }
  return node;
}

void DecisionTree::fit(const data::Dataset& train) {
  static obs::Counter& tree_fits = obs::registry().counter("learners.tree_fits");
  tree_fits.add();
  train.validate();
  IOTML_CHECK(train.has_labels(), "DecisionTree::fit: unlabeled dataset");
  IOTML_CHECK(train.rows() >= 1, "DecisionTree::fit: empty dataset");
  std::vector<std::size_t> rows(train.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  train_categories_.assign(train.num_columns(), {});
  for (std::size_t f = 0; f < train.num_columns(); ++f) {
    if (train.column(f).type() == data::ColumnType::kCategorical) {
      train_categories_[f] = train.column(f).categories();
    }
  }
  root_ = build(train, rows, 0);
}

int DecisionTree::predict_row(const data::Dataset& ds, std::size_t row) const {
  IOTML_CHECK(root_ != nullptr, "DecisionTree::predict_row: call fit() first");
  const Node* node = root_.get();
  while (!node->leaf) {
    const data::Column& col = ds.column(node->feature);
    std::size_t child;
    if (col.is_missing(row)) {
      child = node->missing_child;
    } else if (node->numeric) {
      child = col.numeric(row) <= node->threshold ? 0 : 1;
    } else {
      // Map the cell's label to the training-time category index; unseen
      // labels fall through to the local-majority return below.
      const std::string& label = col.category_label(row);
      const auto& cats = train_categories_[node->feature];
      const auto it = std::find(cats.begin(), cats.end(), label);
      child = it == cats.end() ? cats.size() : static_cast<std::size_t>(it - cats.begin());
    }
    if (child >= node->children.size() || !node->children[child]) {
      return node->label;  // unseen category or empty branch: local majority
    }
    node = node->children[child].get();
  }
  return node->label;
}

std::size_t DecisionTree::flatten(const Node& node,
                                  std::vector<ExportedTreeNode>& out) const {
  const std::size_t id = out.size();
  out.emplace_back();
  out[id].leaf = node.leaf;
  out[id].label = node.label;
  out[id].feature = node.feature;
  out[id].numeric = node.numeric;
  out[id].threshold = node.threshold;
  out[id].missing_slot = node.missing_child;
  out[id].children.assign(node.children.size(), ExportedTreeNode::kNoNode);
  for (std::size_t c = 0; c < node.children.size(); ++c) {
    if (node.children[c]) out[id].children[c] = flatten(*node.children[c], out);
  }
  return id;
}

std::vector<ExportedTreeNode> DecisionTree::export_nodes() const {
  IOTML_CHECK(root_ != nullptr, "DecisionTree::export_nodes: call fit() first");
  std::vector<ExportedTreeNode> out;
  flatten(*root_, out);
  return out;
}

std::size_t DecisionTree::node_count() const {
  return root_ ? root_->count_nodes() : 0;
}

std::size_t DecisionTree::depth() const { return root_ ? root_->max_depth() : 0; }

}  // namespace iotml::learners
