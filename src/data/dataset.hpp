#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace iotml::data {

/// Kind of a dataset column. IoT feature sets mix numeric sensor readings
/// with categorical device attributes (the paper's Section III table has
/// Battery Level / OS / Available, all categorical).
enum class ColumnType { kNumeric, kCategorical };

/// One feature column with per-cell missingness. Categorical values are
/// stored as indices into `categories`; numeric values as raw doubles.
class Column {
 public:
  Column(std::string name, ColumnType type);

  const std::string& name() const noexcept { return name_; }
  ColumnType type() const noexcept { return type_; }
  std::size_t size() const noexcept { return values_.size(); }

  bool is_missing(std::size_t row) const;
  void set_missing(std::size_t row);
  std::size_t missing_count() const;

  /// Numeric access (valid for kNumeric columns and present cells).
  double numeric(std::size_t row) const;
  void push_numeric(double value);
  void set_numeric(std::size_t row, double value);

  /// Categorical access: index + label. push_category interns the label.
  std::size_t category(std::size_t row) const;
  const std::string& category_label(std::size_t row) const;
  void push_category(const std::string& label);
  void set_category(std::size_t row, const std::string& label);
  const std::vector<std::string>& categories() const noexcept { return categories_; }

  /// Intern a label into the category dictionary (idempotent), returning
  /// its index. Public so wire codecs can pre-seed the dictionary in a
  /// pinned order and category codes replay exactly across encode/decode.
  std::size_t intern(const std::string& label);

  /// Append a missing cell.
  void push_missing();

  /// Make room for `rows` cells, so a column filled to a known final length
  /// allocates once and holds no spare capacity.
  void reserve(std::size_t rows);

  /// Raw storage (numeric value or category index; unspecified when missing).
  const std::vector<double>& raw() const noexcept { return values_; }

  /// A copy of the first `rows` cells, raw values included, under the same
  /// name, type and whole category dictionary. Throws InvalidArgument if
  /// `rows` exceeds size().
  Column head(std::size_t rows) const;

 private:
  std::string name_;
  ColumnType type_;
  std::vector<double> values_;
  std::vector<bool> missing_;
  std::vector<std::string> categories_;
};

/// A column-typed dataset with optional integer class labels.
///
/// This is the rich representation used by the preprocessing pipeline, rough
/// sets and decision trees; kernel methods consume the dense `Samples` view
/// produced by `to_samples()`.
class Dataset {
 public:
  Dataset() = default;

  /// Add a column; all columns must stay the same length (checked lazily by
  /// rows(), strictly by validate()). The returned reference stays valid as
  /// more columns are added (columns live in a deque).
  Column& add_numeric_column(const std::string& name);
  Column& add_categorical_column(const std::string& name);

  std::size_t num_columns() const noexcept { return columns_.size(); }
  std::size_t rows() const;

  Column& column(std::size_t i);
  const Column& column(std::size_t i) const;
  /// Lookup by name; throws InvalidArgument if absent.
  std::size_t column_index(const std::string& name) const;

  bool has_labels() const noexcept { return !labels_.empty(); }
  const std::vector<int>& labels() const noexcept { return labels_; }
  void set_labels(std::vector<int> labels);
  int label(std::size_t row) const;

  /// Number of distinct labels (max label + 1); 0 when unlabeled.
  std::size_t num_classes() const;

  /// Total missing cells / total cells.
  double missing_rate() const;

  /// Throws InvalidArgument if column lengths or label length disagree.
  void validate() const;

  /// Append every row of `other`, which must share this dataset's schema
  /// (column names, types and order) and agree on label presence; throws
  /// InvalidArgument on any mismatch. Appending to a default-constructed
  /// dataset copies `other` wholesale. This is how the fleet simulator's
  /// edge and core nodes accumulate records arriving from many sources.
  void append_rows(const Dataset& other);

  /// Extract rows by index into a new dataset (labels follow when present).
  Dataset select_rows(const std::vector<std::size_t>& rows) const;

  /// The first `rows` rows as a new dataset: each column's Column::head and
  /// the first `rows` labels when present. Throws InvalidArgument if `rows`
  /// exceeds rows().
  Dataset head(std::size_t rows) const;

  /// Extract a subset of columns (labels follow when present).
  Dataset select_columns(const std::vector<std::size_t>& cols) const;

 private:
  std::deque<Column> columns_;
  std::vector<int> labels_;
};

/// Dense numeric view for kernel methods and linear models: rows = samples.
struct Samples {
  la::Matrix x;
  std::vector<int> y;

  std::size_t size() const noexcept { return x.rows(); }
  std::size_t dim() const noexcept { return x.cols(); }
};

/// Policy for materializing missing cells into a dense matrix.
enum class MissingPolicy {
  kThrow,      ///< refuse: caller must have imputed already
  kNan,        ///< emit quiet NaN (caller handles)
  kColumnMean  ///< substitute the column mean of present cells
};

/// Convert (a subset of columns of) a dataset into dense samples. Categorical
/// columns are emitted as their category index (use one-hot encoding upstream
/// when that is inappropriate).
Samples to_samples(const Dataset& ds, const std::vector<std::size_t>& feature_cols,
                   MissingPolicy policy = MissingPolicy::kThrow);

/// All-columns convenience overload.
Samples to_samples(const Dataset& ds, MissingPolicy policy = MissingPolicy::kThrow);

/// Select rows of a Samples by index.
Samples select_rows(const Samples& s, const std::vector<std::size_t>& rows);

/// Wrap dense samples back into a Dataset (numeric columns "f0", "f1", ...;
/// labels copied when present). Bridge from kernel-side code to the
/// Dataset-based learners.
Dataset samples_to_dataset(const Samples& s);

}  // namespace iotml::data
