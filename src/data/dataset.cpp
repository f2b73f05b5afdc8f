#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace iotml::data {

Column::Column(std::string name, ColumnType type) : name_(std::move(name)), type_(type) {}

bool Column::is_missing(std::size_t row) const {
  IOTML_CHECK(row < values_.size(), "Column::is_missing: row out of range");
  return missing_[row];
}

void Column::set_missing(std::size_t row) {
  IOTML_CHECK(row < values_.size(), "Column::set_missing: row out of range");
  missing_[row] = true;
}

std::size_t Column::missing_count() const {
  return static_cast<std::size_t>(std::count(missing_.begin(), missing_.end(), true));
}

double Column::numeric(std::size_t row) const {
  IOTML_CHECK(row < values_.size(), "Column::numeric: row out of range");
  IOTML_CHECK(type_ == ColumnType::kNumeric, "Column::numeric: not a numeric column");
  IOTML_CHECK(!missing_[row], "Column::numeric: cell is missing");
  return values_[row];
}

void Column::push_numeric(double value) {
  IOTML_CHECK(type_ == ColumnType::kNumeric, "Column::push_numeric: not a numeric column");
  values_.push_back(value);
  missing_.push_back(false);
}

void Column::set_numeric(std::size_t row, double value) {
  IOTML_CHECK(row < values_.size(), "Column::set_numeric: row out of range");
  IOTML_CHECK(type_ == ColumnType::kNumeric, "Column::set_numeric: not a numeric column");
  values_[row] = value;
  missing_[row] = false;
}

std::size_t Column::category(std::size_t row) const {
  IOTML_CHECK(row < values_.size(), "Column::category: row out of range");
  IOTML_CHECK(type_ == ColumnType::kCategorical, "Column::category: not categorical");
  IOTML_CHECK(!missing_[row], "Column::category: cell is missing");
  return static_cast<std::size_t>(values_[row]);
}

const std::string& Column::category_label(std::size_t row) const {
  return categories_[category(row)];
}

std::size_t Column::intern(const std::string& label) {
  auto it = std::find(categories_.begin(), categories_.end(), label);
  if (it != categories_.end()) {
    return static_cast<std::size_t>(it - categories_.begin());
  }
  categories_.push_back(label);
  return categories_.size() - 1;
}

void Column::push_category(const std::string& label) {
  IOTML_CHECK(type_ == ColumnType::kCategorical, "Column::push_category: not categorical");
  values_.push_back(static_cast<double>(intern(label)));
  missing_.push_back(false);
}

Column Column::head(std::size_t rows) const {
  IOTML_CHECK(rows <= values_.size(), "Column::head: more rows than the column holds");
  Column out(name_, type_);
  const auto n = static_cast<std::ptrdiff_t>(rows);
  out.values_.assign(values_.begin(), values_.begin() + n);
  out.missing_.assign(missing_.begin(), missing_.begin() + n);
  out.categories_ = categories_;
  return out;
}

void Column::set_category(std::size_t row, const std::string& label) {
  IOTML_CHECK(row < values_.size(), "Column::set_category: row out of range");
  IOTML_CHECK(type_ == ColumnType::kCategorical, "Column::set_category: not categorical");
  values_[row] = static_cast<double>(intern(label));
  missing_[row] = false;
}

void Column::push_missing() {
  values_.push_back(std::numeric_limits<double>::quiet_NaN());
  missing_.push_back(true);
}

void Column::reserve(std::size_t rows) {
  values_.reserve(rows);
  missing_.reserve(rows);
}

// ---- Dataset ----------------------------------------------------------------

Column& Dataset::add_numeric_column(const std::string& name) {
  columns_.emplace_back(name, ColumnType::kNumeric);
  return columns_.back();
}

Column& Dataset::add_categorical_column(const std::string& name) {
  columns_.emplace_back(name, ColumnType::kCategorical);
  return columns_.back();
}

std::size_t Dataset::rows() const {
  if (columns_.empty()) return labels_.size();
  return columns_.front().size();
}

Column& Dataset::column(std::size_t i) {
  IOTML_CHECK(i < columns_.size(), "Dataset::column: index out of range");
  return columns_[i];
}

const Column& Dataset::column(std::size_t i) const {
  IOTML_CHECK(i < columns_.size(), "Dataset::column: index out of range");
  return columns_[i];
}

std::size_t Dataset::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  throw InvalidArgument("Dataset::column_index: no column named '" + name + "'");
}

void Dataset::set_labels(std::vector<int> labels) {
  for (int label : labels) {
    IOTML_CHECK(label >= 0, "Dataset::set_labels: labels must be non-negative");
  }
  labels_ = std::move(labels);
}

int Dataset::label(std::size_t row) const {
  IOTML_CHECK(row < labels_.size(), "Dataset::label: row out of range");
  return labels_[row];
}

std::size_t Dataset::num_classes() const {
  if (labels_.empty()) return 0;
  return static_cast<std::size_t>(*std::max_element(labels_.begin(), labels_.end())) + 1;
}

double Dataset::missing_rate() const {
  std::size_t cells = 0, missing = 0;
  for (const Column& c : columns_) {
    cells += c.size();
    missing += c.missing_count();
  }
  return cells == 0 ? 0.0 : static_cast<double>(missing) / static_cast<double>(cells);
}

void Dataset::validate() const {
  const std::size_t n = rows();
  for (const Column& c : columns_) {
    IOTML_CHECK(c.size() == n, "Dataset::validate: column '" + c.name() + "' length mismatch");
  }
  IOTML_CHECK(labels_.empty() || labels_.size() == n,
              "Dataset::validate: label length mismatch");
}

void Dataset::append_rows(const Dataset& other) {
  if (columns_.empty() && labels_.empty()) {
    *this = other;
    return;
  }
  IOTML_CHECK(other.num_columns() == num_columns(),
              "Dataset::append_rows: column count mismatch");
  IOTML_CHECK(other.has_labels() == has_labels(),
              "Dataset::append_rows: label presence mismatch");
  for (std::size_t c = 0; c < num_columns(); ++c) {
    const Column& src = other.columns_[c];
    Column& dst = columns_[c];
    IOTML_CHECK(src.name() == dst.name() && src.type() == dst.type(),
                "Dataset::append_rows: column '" + dst.name() + "' schema mismatch");
    for (std::size_t r = 0; r < src.size(); ++r) {
      if (src.is_missing(r)) {
        dst.push_missing();
      } else if (src.type() == ColumnType::kNumeric) {
        dst.push_numeric(src.numeric(r));
      } else {
        dst.push_category(src.category_label(r));
      }
    }
  }
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

Dataset Dataset::select_rows(const std::vector<std::size_t>& rows) const {
  Dataset out;
  for (const Column& c : columns_) {
    Column& nc = c.type() == ColumnType::kNumeric ? out.add_numeric_column(c.name())
                                                  : out.add_categorical_column(c.name());
    for (std::size_t r : rows) {
      IOTML_CHECK(r < c.size(), "Dataset::select_rows: row out of range");
      if (c.is_missing(r)) {
        nc.push_missing();
      } else if (c.type() == ColumnType::kNumeric) {
        nc.push_numeric(c.numeric(r));
      } else {
        nc.push_category(c.category_label(r));
      }
    }
  }
  if (has_labels()) {
    std::vector<int> new_labels;
    new_labels.reserve(rows.size());
    for (std::size_t r : rows) new_labels.push_back(label(r));
    out.set_labels(std::move(new_labels));
  }
  return out;
}

Dataset Dataset::head(std::size_t rows) const {
  IOTML_CHECK(rows <= this->rows() && (labels_.empty() || rows <= labels_.size()),
              "Dataset::head: more rows than the dataset holds");
  Dataset out;
  for (const Column& c : columns_) out.columns_.push_back(c.head(rows));
  if (has_labels()) {
    out.labels_.assign(labels_.begin(), labels_.begin() + static_cast<std::ptrdiff_t>(rows));
  }
  return out;
}

Dataset Dataset::select_columns(const std::vector<std::size_t>& cols) const {
  Dataset out;
  for (std::size_t c : cols) {
    const Column& src = column(c);
    Column& nc = src.type() == ColumnType::kNumeric ? out.add_numeric_column(src.name())
                                                    : out.add_categorical_column(src.name());
    for (std::size_t r = 0; r < src.size(); ++r) {
      if (src.is_missing(r)) {
        nc.push_missing();
      } else if (src.type() == ColumnType::kNumeric) {
        nc.push_numeric(src.numeric(r));
      } else {
        nc.push_category(src.category_label(r));
      }
    }
  }
  out.labels_ = labels_;
  return out;
}

// ---- Samples ----------------------------------------------------------------

Samples to_samples(const Dataset& ds, const std::vector<std::size_t>& feature_cols,
                   MissingPolicy policy) {
  ds.validate();
  const std::size_t n = ds.rows();
  Samples s;
  s.x = la::Matrix(n, feature_cols.size());
  for (std::size_t j = 0; j < feature_cols.size(); ++j) {
    const Column& c = ds.column(feature_cols[j]);
    double mean = 0.0;
    if (policy == MissingPolicy::kColumnMean) {
      std::size_t present = 0;
      for (std::size_t r = 0; r < n; ++r) {
        if (!c.is_missing(r)) {
          mean += c.raw()[r];
          ++present;
        }
      }
      mean = present > 0 ? mean / static_cast<double>(present) : 0.0;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (c.is_missing(r)) {
        switch (policy) {
          case MissingPolicy::kThrow:
            throw InvalidArgument("to_samples: missing cell in column '" + c.name() +
                                  "' (impute first or choose another MissingPolicy)");
          case MissingPolicy::kNan:
            s.x(r, j) = std::numeric_limits<double>::quiet_NaN();
            break;
          case MissingPolicy::kColumnMean:
            s.x(r, j) = mean;
            break;
        }
      } else {
        s.x(r, j) = c.raw()[r];
      }
    }
  }
  s.y = ds.labels();
  return s;
}

Samples to_samples(const Dataset& ds, MissingPolicy policy) {
  std::vector<std::size_t> cols(ds.num_columns());
  std::iota(cols.begin(), cols.end(), std::size_t{0});
  return to_samples(ds, cols, policy);
}

Dataset samples_to_dataset(const Samples& s) {
  Dataset out;
  for (std::size_t c = 0; c < s.dim(); ++c) {
    std::string name = "f";
    name += std::to_string(c);
    Column& col = out.add_numeric_column(name);
    for (std::size_t r = 0; r < s.size(); ++r) col.push_numeric(s.x(r, c));
  }
  if (!s.y.empty()) out.set_labels(s.y);
  return out;
}

Samples select_rows(const Samples& s, const std::vector<std::size_t>& rows) {
  Samples out;
  out.x = la::Matrix(rows.size(), s.x.cols());
  out.y.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    IOTML_CHECK(rows[i] < s.x.rows(), "select_rows: row out of range");
    for (std::size_t j = 0; j < s.x.cols(); ++j) out.x(i, j) = s.x(rows[i], j);
    if (!s.y.empty()) out.y.push_back(s.y[rows[i]]);
  }
  return out;
}

}  // namespace iotml::data
