#include "deploy/compiled_model.hpp"

#include <algorithm>

#include "deploy/codec.hpp"
#include "util/error.hpp"

namespace iotml::deploy {

namespace {

constexpr std::uint8_t kMagic[4] = {'I', 'O', 'M', 'L'};
constexpr std::uint16_t kFormatVersion = 1;

void encode_tensor(ByteWriter& w, const Tensor& t) {
  w.u8(enum_u8(t.precision));
  w.f32(t.scale);
  w.u32(narrow_u32(t.size(), "tensor length"));
  switch (t.precision) {
    case Precision::kFloat32:
      for (float v : t.f) w.f32(v);
      break;
    case Precision::kInt16:
      for (std::int16_t v : t.q) w.i16(v);
      break;
    case Precision::kInt8:
      for (std::int16_t v : t.q) w.i8(narrow_i8(v, "int8 tensor value"));
      break;
  }
}

Tensor decode_tensor(ByteReader& r) {
  Tensor t;
  const std::uint8_t p = r.u8();
  IOTML_CHECK(p <= enum_u8(Precision::kInt8),
              "CompiledModel::decode: bad tensor precision tag");
  t.precision = static_cast<Precision>(p);
  t.scale = r.f32();
  const std::uint32_t n = r.u32();
  switch (t.precision) {
    case Precision::kFloat32:
      t.f.reserve(r.count(n, 4));
      for (std::uint32_t i = 0; i < n; ++i) t.f.push_back(r.f32());
      break;
    case Precision::kInt16:
      t.q.reserve(r.count(n, 2));
      for (std::uint32_t i = 0; i < n; ++i) t.q.push_back(r.i16());
      break;
    case Precision::kInt8:
      t.q.reserve(r.count(n, 1));
      for (std::uint32_t i = 0; i < n; ++i) t.q.push_back(r.i8());
      break;
  }
  return t;
}

/// Worst-case (comparisons, lookups) on any root-to-leaf path.
void tree_path_cost(const TreeModel& tree, std::uint16_t node_id,
                    std::uint64_t comparisons, std::uint64_t lookups,
                    InferenceCost& worst) {
  const TreeNode& node = tree.nodes[node_id];
  if (node.leaf()) {
    if (comparisons + lookups > worst.comparisons + worst.table_lookups) {
      worst.comparisons = comparisons;
      worst.table_lookups = lookups;
    }
    return;
  }
  const std::uint64_t c = comparisons + (node.numeric() ? 1 : 0);
  const std::uint64_t l = lookups + (node.numeric() ? 0 : 1);
  bool any_child = false;
  for (std::size_t s = 0; s < node.child_count; ++s) {
    const std::uint16_t child = tree.child_index[node.child_base + s];
    if (child == kNoChild) continue;
    any_child = true;
    tree_path_cost(tree, child, c, l, worst);
  }
  if (!any_child && c + l > worst.comparisons + worst.table_lookups) {
    worst.comparisons = c;
    worst.table_lookups = l;
  }
}

}  // namespace

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTree: return "tree";
    case ModelKind::kLinear: return "linear";
    case ModelKind::kNaiveBayes: return "naive-bayes";
  }
  return "?";
}

std::string precision_name(Precision p) {
  switch (p) {
    case Precision::kFloat32: return "float32";
    case Precision::kInt16: return "int16";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

std::vector<std::uint8_t> CompiledModel::encode() const {
  validate();
  ByteWriter w;
  for (std::uint8_t m : kMagic) w.u8(m);
  w.u16(version);
  w.u8(enum_u8(kind));
  w.u8(enum_u8(precision));
  w.u16(num_classes);
  w.u16(narrow_u16(features.size(), "feature count"));
  for (const FeatureSchema& fs : features) {
    w.str(fs.name);
    w.u8(fs.categorical ? 1 : 0);
    w.u16(narrow_u16(fs.categories.size(), "category count"));
    for (const std::string& c : fs.categories) w.str(c);
  }

  switch (kind) {
    case ModelKind::kTree: {
      w.u16(narrow_u16(tree.nodes.size(), "tree node count"));
      w.u16(narrow_u16(tree.child_index.size(), "tree child pool size"));
      for (const TreeNode& n : tree.nodes) {
        w.u8(n.flags);
        w.u8(n.label);
        w.u16(n.feature);
        w.u16(n.child_base);
        w.u8(n.child_count);
        w.u8(n.missing_slot);
      }
      for (std::uint16_t c : tree.child_index) w.u16(c);
      encode_tensor(w, tree.thresholds);
      break;
    }
    case ModelKind::kLinear: {
      encode_tensor(w, linear.weights);
      w.f32(linear.bias);
      encode_tensor(w, linear.impute);
      w.u8(linear.regression);
      break;
    }
    case ModelKind::kNaiveBayes: {
      encode_tensor(w, nb.log_prior);
      for (std::size_t fi = 0; fi < features.size(); ++fi) {
        const NaiveBayesFeature& f = nb.features[fi];
        if (features[fi].categorical) {
          encode_tensor(w, f.log_likelihood);
        } else {
          encode_tensor(w, f.mean);
          encode_tensor(w, f.variance);
          for (std::uint8_t present : f.class_present) w.u8(present);
        }
      }
      break;
    }
  }

  const std::uint32_t checksum = fnv1a(w.bytes().data(), w.size());
  w.u32(checksum);
  return w.take();
}

CompiledModel CompiledModel::decode(const std::vector<std::uint8_t>& bytes) {
  IOTML_CHECK(bytes.size() >= 14, "CompiledModel::decode: artifact too short");
  const std::uint32_t expect = fnv1a(bytes.data(), bytes.size() - 4);
  ByteReader trailer(bytes.data() + bytes.size() - 4, 4);
  IOTML_CHECK(trailer.u32() == expect,
              "CompiledModel::decode: checksum mismatch (corrupt artifact)");

  ByteReader r(bytes.data(), bytes.size() - 4);
  for (std::uint8_t m : kMagic) {
    IOTML_CHECK(r.u8() == m, "CompiledModel::decode: bad magic");
  }
  CompiledModel model;
  model.version = r.u16();
  IOTML_CHECK(model.version == kFormatVersion,
              "CompiledModel::decode: unsupported artifact version");
  const std::uint8_t kind_tag = r.u8();
  IOTML_CHECK(kind_tag >= 1 && kind_tag <= 3, "CompiledModel::decode: bad kind tag");
  model.kind = static_cast<ModelKind>(kind_tag);
  const std::uint8_t prec_tag = r.u8();
  IOTML_CHECK(prec_tag <= 2, "CompiledModel::decode: bad precision tag");
  model.precision = static_cast<Precision>(prec_tag);
  model.num_classes = r.u16();
  const std::uint16_t n_features = r.u16();
  model.features.reserve(r.count(n_features, 7));  // name length, flag, category count
  for (std::uint16_t i = 0; i < n_features; ++i) {
    FeatureSchema fs;
    fs.name = r.str();
    fs.categorical = r.u8() != 0;
    const std::uint16_t n_cats = r.u16();
    fs.categories.reserve(r.count(n_cats, 4));  // each label has a u32 length
    for (std::uint16_t c = 0; c < n_cats; ++c) fs.categories.push_back(r.str());
    model.features.push_back(std::move(fs));
  }

  switch (model.kind) {
    case ModelKind::kTree: {
      const std::uint16_t n_nodes = r.u16();
      const std::uint16_t n_children = r.u16();
      model.tree.nodes.reserve(r.count(n_nodes, 8));
      for (std::uint16_t i = 0; i < n_nodes; ++i) {
        TreeNode n;
        n.flags = r.u8();
        n.label = r.u8();
        n.feature = r.u16();
        n.child_base = r.u16();
        n.child_count = r.u8();
        n.missing_slot = r.u8();
        model.tree.nodes.push_back(n);
      }
      model.tree.child_index.reserve(r.count(n_children, 2));
      for (std::uint16_t i = 0; i < n_children; ++i) {
        model.tree.child_index.push_back(r.u16());
      }
      model.tree.thresholds = decode_tensor(r);
      break;
    }
    case ModelKind::kLinear: {
      model.linear.weights = decode_tensor(r);
      model.linear.bias = r.f32();
      model.linear.impute = decode_tensor(r);
      model.linear.regression = r.u8();
      break;
    }
    case ModelKind::kNaiveBayes: {
      model.nb.log_prior = decode_tensor(r);
      model.nb.features.resize(model.features.size());
      for (std::size_t fi = 0; fi < model.features.size(); ++fi) {
        NaiveBayesFeature& f = model.nb.features[fi];
        if (model.features[fi].categorical) {
          f.log_likelihood = decode_tensor(r);
        } else {
          f.mean = decode_tensor(r);
          f.variance = decode_tensor(r);
          f.class_present.reserve(r.count(model.num_classes, 1));
          for (std::uint16_t c = 0; c < model.num_classes; ++c) {
            f.class_present.push_back(r.u8());
          }
        }
      }
      break;
    }
  }
  IOTML_CHECK(r.done(), "CompiledModel::decode: trailing bytes after body");
  model.validate();
  return model;
}

std::size_t CompiledModel::size_bytes() const { return encode().size(); }

InferenceCost CompiledModel::cost_per_row() const {
  InferenceCost cost;
  switch (kind) {
    case ModelKind::kTree:
      if (!tree.nodes.empty()) tree_path_cost(tree, 0, 0, 0, cost);
      break;
    case ModelKind::kLinear:
      cost.multiply_adds = linear.weights.size();
      cost.comparisons = linear.regression != 0 ? 0 : 1;
      break;
    case ModelKind::kNaiveBayes: {
      for (std::size_t fi = 0; fi < features.size(); ++fi) {
        if (features[fi].categorical) {
          // One dictionary probe, then one add per class.
          cost.table_lookups += 1;
          cost.multiply_adds += num_classes;
        } else {
          // (v - mean)^2 * inv_2var + bias add, per class.
          cost.multiply_adds += 2ULL * num_classes;
        }
      }
      // argmax over the class scores.
      cost.comparisons += num_classes > 0 ? num_classes - 1U : 0U;
      break;
    }
  }
  return cost;
}

void CompiledModel::validate() const {
  IOTML_CHECK(num_classes >= 1, "CompiledModel: num_classes must be >= 1");
  IOTML_CHECK(!features.empty(), "CompiledModel: no features");
  switch (kind) {
    case ModelKind::kTree: {
      IOTML_CHECK(!tree.nodes.empty(), "CompiledModel: tree has no nodes");
      IOTML_CHECK(tree.thresholds.size() == tree.nodes.size(),
                  "CompiledModel: thresholds/nodes length mismatch");
      for (const TreeNode& n : tree.nodes) {
        IOTML_CHECK(n.label < num_classes, "CompiledModel: tree label out of range");
        if (n.leaf()) continue;
        IOTML_CHECK(n.feature < features.size(),
                    "CompiledModel: tree split feature out of range");
        IOTML_CHECK(n.child_count >= 1, "CompiledModel: internal node with no children");
        IOTML_CHECK(static_cast<std::size_t>(n.child_base) + n.child_count <=
                        tree.child_index.size(),
                    "CompiledModel: tree child slots out of range");
        IOTML_CHECK(n.missing_slot < n.child_count,
                    "CompiledModel: missing_slot out of range");
        for (std::size_t s = 0; s < n.child_count; ++s) {
          const std::uint16_t child = tree.child_index[n.child_base + s];
          IOTML_CHECK(child == kNoChild || child < tree.nodes.size(),
                      "CompiledModel: tree child id out of range");
        }
      }
      break;
    }
    case ModelKind::kLinear:
      IOTML_CHECK(linear.weights.size() == features.size(),
                  "CompiledModel: weights/features length mismatch");
      IOTML_CHECK(linear.impute.size() == features.size(),
                  "CompiledModel: impute/features length mismatch");
      break;
    case ModelKind::kNaiveBayes: {
      IOTML_CHECK(nb.log_prior.size() == num_classes,
                  "CompiledModel: log_prior/classes length mismatch");
      IOTML_CHECK(nb.features.size() == features.size(),
                  "CompiledModel: nb features/schema length mismatch");
      for (std::size_t fi = 0; fi < features.size(); ++fi) {
        const NaiveBayesFeature& f = nb.features[fi];
        if (features[fi].categorical) {
          IOTML_CHECK(f.log_likelihood.size() ==
                          static_cast<std::size_t>(num_classes) *
                              features[fi].categories.size(),
                      "CompiledModel: nb table size mismatch");
        } else {
          IOTML_CHECK(f.mean.size() == num_classes && f.variance.size() == num_classes &&
                          f.class_present.size() == num_classes,
                      "CompiledModel: nb gaussian size mismatch");
        }
      }
      break;
    }
  }
}

}  // namespace iotml::deploy
