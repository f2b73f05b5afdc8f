#include "sim/placement.hpp"

namespace iotml::sim {

TierPipelines split_by_tier(pipeline::Pipeline&& full) {
  TierPipelines tiers;
  for (pipeline::Stage& stage : full.take_stages()) {
    pipeline::Pipeline& tier = stage.tier == pipeline::Tier::kDevice ? tiers.device
                               : stage.tier == pipeline::Tier::kEdge ? tiers.edge
                                                                     : tiers.core;
    tier.add(std::move(stage.name), std::move(stage.fn), std::move(stage.player), stage.tier);
  }
  return tiers;
}

}  // namespace iotml::sim
