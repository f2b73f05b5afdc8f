#include "multiview/views.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace iotml::multiview {

la::Matrix project(const la::Matrix& x, const View& view) {
  IOTML_CHECK(!view.empty(), "project: empty view");
  la::Matrix out(x.rows(), view.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < view.size(); ++c) {
      IOTML_CHECK(view[c] < x.cols(), "project: feature index out of range");
      out(r, c) = x(r, view[c]);
    }
  }
  return out;
}

data::Samples project(const data::Samples& s, const View& view) {
  data::Samples out;
  out.x = project(s.x, view);
  out.y = s.y;
  return out;
}

std::vector<View> contiguous_views(std::size_t dim, std::size_t count) {
  IOTML_CHECK(count >= 1 && count <= dim, "contiguous_views: bad view count");
  std::vector<View> views(count);
  for (std::size_t f = 0; f < dim; ++f) {
    views[f * count / dim].push_back(f);
  }
  return views;
}

la::Matrix abs_correlation(const la::Matrix& x) {
  const la::Matrix cov = la::covariance(x);
  la::Matrix corr(cov.rows(), cov.cols());
  for (std::size_t i = 0; i < cov.rows(); ++i) {
    for (std::size_t j = 0; j < cov.cols(); ++j) {
      const double denom = std::sqrt(cov(i, i) * cov(j, j));
      corr(i, j) = denom > 1e-12 ? std::fabs(cov(i, j)) / denom : 0.0;
    }
  }
  return corr;
}

std::vector<std::size_t> correlation_order(const data::Samples& s) {
  const std::size_t d = s.dim();
  IOTML_CHECK(d >= 1, "correlation_order: no features");
  if (d == 1) return {0};
  const la::Matrix corr = abs_correlation(s.x);

  // Start from the feature with the highest total correlation, then greedily
  // append the unused feature most correlated with the chain's tail.
  std::vector<bool> used(d, false);
  std::size_t start = 0;
  double best_total = -1.0;
  for (std::size_t i = 0; i < d; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      if (j != i) total += corr(i, j);
    }
    if (total > best_total) {
      best_total = total;
      start = i;
    }
  }

  std::vector<std::size_t> order{start};
  used[start] = true;
  while (order.size() < d) {
    const std::size_t tail = order.back();
    std::size_t next = 0;
    double best = -1.0;
    for (std::size_t j = 0; j < d; ++j) {
      if (!used[j] && corr(tail, j) > best) {
        best = corr(tail, j);
        next = j;
      }
    }
    order.push_back(next);
    used[next] = true;
  }
  return order;
}

}  // namespace iotml::multiview
