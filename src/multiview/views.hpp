#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.hpp"

namespace iotml::multiview {

/// A view is a subset of feature columns — one facet of the feature set
/// (Section I: "a feature-set, collected by many different sensors ... will
/// have natively a faceted structure").
using View = std::vector<std::size_t>;

/// Restrict a sample matrix to one view's columns, in the view's order.
la::Matrix project(const la::Matrix& x, const View& view);

/// Restrict samples to one view's features.
data::Samples project(const data::Samples& s, const View& view);

/// Split the feature set [0, dim) into `count` contiguous views of (near)
/// equal size — a default facetting when none is known.
std::vector<View> contiguous_views(std::size_t dim, std::size_t count);

/// Order features so that highly correlated features are adjacent: greedy
/// chaining on |Pearson correlation| computed from the samples. Used by the
/// chain-based lattice search so that suffix-merging chains group related
/// features first.
std::vector<std::size_t> correlation_order(const data::Samples& s);

/// Pairwise |Pearson correlation| matrix of the features.
la::Matrix abs_correlation(const la::Matrix& x);

}  // namespace iotml::multiview
