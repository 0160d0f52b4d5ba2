#include "pktgen/sharded_pipeline.h"

#include <algorithm>

#include "core/hash.h"
#include "core/hash_inl.h"

namespace pktgen {

namespace {

// CRC32 with the seed as init value is affine in the seed: over fixed-length
// keys, two seeds differ by one constant XOR on every hash, so `% table_size`
// only relabels slots — which flows COLLIDE never changes. Real RSS re-keying
// repartitions flows; a multiplicative finalizer (murmur3 fmix32) breaks the
// GF(2) linearity and restores that.
u32 RssFlowHash(const ebpf::FiveTuple& tuple, u32 seed) {
  u32 h = enetstl::internal::HwHashCrcImpl(&tuple, sizeof(tuple), seed);
  h ^= h >> 16;
  h *= 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

}  // namespace

std::vector<u32> BuildRssIndirection(u32 num_queues) {
  std::vector<u32> table(kRssIndirectionSize, 0);
  if (num_queues == 0) {
    return table;
  }
  for (u32 i = 0; i < kRssIndirectionSize; ++i) {
    table[i] = i % num_queues;
  }
  return table;
}

u32 RssSlotForPacket(const Packet& packet, u32 table_size, u32 seed) {
  if (table_size <= 1) {
    return 0;
  }
  ebpf::XdpContext ctx;
  ctx.data = const_cast<u8*>(packet.frame);
  ctx.data_end = const_cast<u8*>(packet.frame) + ebpf::kFrameSize;
  ebpf::FiveTuple tuple;
  if (!ebpf::ParseFiveTuple(ctx, &tuple)) {
    return 0;
  }
  return RssFlowHash(tuple, seed) % table_size;
}

std::vector<StageStats> MergeStageBreakdowns(
    const std::vector<ShardedPipeline::ShardStats>& shards) {
  std::vector<StageStats> merged;
  for (const ShardedPipeline::ShardStats& shard : shards) {
    for (const StageStats& stage : shard.stages) {
      StageStats* into = nullptr;
      for (StageStats& m : merged) {
        if (m.name == stage.name) {
          into = &m;
          break;
        }
      }
      if (into == nullptr) {
        merged.push_back(stage);
        continue;
      }
      into->in += stage.in;
      into->pass += stage.pass;
      into->drop += stage.drop;
      into->tx += stage.tx;
      into->redirect += stage.redirect;
      into->aborted += stage.aborted;
      into->ns += stage.ns;
    }
  }
  return merged;
}

ShardedPipeline::ShardedPipeline(const Options& options) : options_(options) {
  options_.num_workers =
      std::clamp(options_.num_workers, u32{1}, ebpf::kNumPossibleCpus);
  options_.burst_size = std::clamp(options_.burst_size, u32{1}, kMaxBurstSize);
}

}  // namespace pktgen
