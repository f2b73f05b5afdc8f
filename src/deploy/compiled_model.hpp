#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace iotml::deploy {

/// Which learner family a compiled artifact encodes.
enum class ModelKind : std::uint8_t {
  kTree = 1,       ///< flat array-packed decision tree
  kLinear = 2,     ///< weight vector + bias (logistic head or KRR regression)
  kNaiveBayes = 3  ///< log-prior + per-feature likelihood tables
};

std::string model_kind_name(ModelKind kind);

/// Storage precision of a model's numeric constants. Quantized tensors hold
/// fixed-point values q with dequantization value = scale * q.
enum class Precision : std::uint8_t { kFloat32 = 0, kInt16 = 1, kInt8 = 2 };

std::string precision_name(Precision p);

/// A flat vector of model constants in the artifact's storage precision.
/// Float32 models fill `f`; quantized models fill `q` (int8 values are held
/// in int16 storage but encode as one byte each). The in-memory tensor
/// mirrors the encoded bytes exactly, so encode(decode(bytes)) == bytes.
struct Tensor {
  Precision precision = Precision::kFloat32;
  float scale = 1.0F;  ///< dequantization step (unused for float32)
  std::vector<float> f;
  std::vector<std::int16_t> q;

  std::size_t size() const noexcept {
    return precision == Precision::kFloat32 ? f.size() : q.size();
  }
  /// Dequantized read.
  float at(std::size_t i) const {
    return precision == Precision::kFloat32 ? f[i]
                                            : scale * static_cast<float>(q[i]);
  }
};

/// Binding schema of one model input: the feature's training-time name, kind
/// and (for categorical features) category dictionary. The device runtime
/// matches these against its local dataset columns by name, so an artifact
/// is portable across devices whose schemas share the trained columns.
struct FeatureSchema {
  std::string name;
  bool categorical = false;
  std::vector<std::string> categories;  ///< training-time dictionary
};

inline constexpr std::uint16_t kNoChild = 0xFFFF;

/// One node of a flat array-packed tree. Children live in a shared
/// `child_index` pool: slots [child_base, child_base + child_count) hold
/// node ids (kNoChild for branches that were empty at training time).
/// Numeric splits have two slots (<= threshold, > threshold); categorical
/// splits have one slot per training-time category (plus possibly a
/// dedicated missing slot). `missing_slot` routes rows whose split feature
/// is missing. Leaves carry only `label`; internal nodes also carry it as
/// the local-majority fallback for unseen categories.
struct TreeNode {
  std::uint8_t flags = 0;  ///< bit0 = leaf, bit1 = numeric split
  std::uint8_t label = 0;
  std::uint16_t feature = 0;
  std::uint16_t child_base = 0;
  std::uint8_t child_count = 0;
  std::uint8_t missing_slot = 0;

  bool leaf() const noexcept { return (flags & 1U) != 0U; }
  bool numeric() const noexcept { return (flags & 2U) != 0U; }
};

struct TreeModel {
  std::vector<TreeNode> nodes;  ///< pre-order; nodes[0] is the root
  std::vector<std::uint16_t> child_index;
  Tensor thresholds;  ///< one per node (0 for leaves and categorical splits)
};

/// w.x + b over the schema features; missing cells substitute `impute`
/// (the training column mean, in raw units). Classification heads threshold
/// the score at 0; regression heads return it as-is.
struct LinearModel {
  Tensor weights;
  float bias = 0.0F;
  Tensor impute;
  std::uint8_t regression = 0;
};

/// Per-feature naive-Bayes statistics. Numeric features score per-class
/// Gaussians (class_present masks classes with no training data);
/// categorical features index a [class x category] log-likelihood table.
struct NaiveBayesFeature {
  Tensor mean;            ///< numeric: [C]
  Tensor variance;        ///< numeric: [C]
  std::vector<std::uint8_t> class_present;  ///< numeric: [C]
  Tensor log_likelihood;  ///< categorical: [C * categories]
};

struct NaiveBayesModel {
  Tensor log_prior;  ///< [C]
  std::vector<NaiveBayesFeature> features;
};

/// Deterministic per-inference cost of a compiled model, in primitive device
/// operations. Tree costs are worst-case root-to-leaf; linear and NB costs
/// are exact per row. This is the currency the paper's cost/accuracy
/// trade-off is priced in on the device tier.
struct InferenceCost {
  std::uint64_t multiply_adds = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t table_lookups = 0;

  InferenceCost& operator+=(const InferenceCost& o) {
    multiply_adds += o.multiply_adds;
    comparisons += o.comparisons;
    table_lookups += o.table_lookups;
    return *this;
  }
};

/// A trained learner lowered to a compact, versioned, byte-exact artifact:
/// flat arrays, no pointers, every numeric constant in a Tensor whose
/// storage precision the quantizer can lower. `encode` produces the stable
/// little-endian wire format ("IOML", version, kind, schema, body, FNV-1a
/// trailer); `decode` round-trips it byte-exactly, so artifact bytes — not
/// an in-memory proxy — are what the fleet's links charge for.
struct CompiledModel {
  std::uint16_t version = 1;
  ModelKind kind = ModelKind::kTree;
  Precision precision = Precision::kFloat32;
  std::uint16_t num_classes = 2;
  std::vector<FeatureSchema> features;

  TreeModel tree;
  LinearModel linear;
  NaiveBayesModel nb;

  std::vector<std::uint8_t> encode() const;

  /// Parse an encoded artifact. Throws InvalidArgument on bad magic, an
  /// unsupported version, a checksum mismatch or any truncation.
  static CompiledModel decode(const std::vector<std::uint8_t>& bytes);

  /// Encoded artifact size in bytes (== encode().size()).
  std::size_t size_bytes() const;

  /// Worst-case cost of scoring one row.
  InferenceCost cost_per_row() const;

  /// Structural sanity of the flat arrays (ids in range, tensor sizes
  /// consistent). Throws InvalidArgument on violation; decode() runs this.
  void validate() const;
};

}  // namespace iotml::deploy
