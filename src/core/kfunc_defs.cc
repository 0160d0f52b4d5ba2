#include "core/kfunc_defs.h"

namespace enetstl {

int RegisterEnetstlKfuncs(ebpf::KfuncRegistry& registry) {
  using ebpf::KfuncDesc;
  using ebpf::ProgramType;

  const std::vector<ProgramType> net_types = {
      ProgramType::kXdp, ProgramType::kTcIngress, ProgramType::kTcEgress};

  const KfuncDesc descs[] = {
      // Memory wrapper.
      {"enetstl_node_alloc", ebpf::kKfAcquire | ebpf::kKfRetNull, "mw_node",
       net_types},
      {"enetstl_set_owner", 0, "mw_node", net_types},
      {"enetstl_unset_owner", 0, "mw_node", net_types},
      {"enetstl_node_connect", ebpf::kKfTrustedArgs, "mw_node", net_types},
      {"enetstl_node_disconnect", ebpf::kKfTrustedArgs, "mw_node", net_types},
      {"enetstl_get_next", ebpf::kKfAcquire | ebpf::kKfRetNull, "mw_node",
       net_types},
      // Batched traversal: one call boundary advances a whole frontier of
      // (node, out_idx) cursors with grouped software prefetch; every
      // element of the result is an acquired, possibly-null node pointer.
      {"enetstl_get_next_batch", ebpf::kKfAcquire | ebpf::kKfRetNull,
       "mw_node", net_types},
      {"enetstl_node_acquire", ebpf::kKfAcquire, "mw_node", net_types},
      {"enetstl_node_release", ebpf::kKfRelease, "mw_node", net_types},
      {"enetstl_node_write", ebpf::kKfTrustedArgs, "mw_node", net_types},
      {"enetstl_node_read", ebpf::kKfTrustedArgs, "mw_node", net_types},

      // Bit-manipulation algorithms.
      {"enetstl_ffs64", 0, "", net_types},
      {"enetstl_fls64", 0, "", net_types},
      {"enetstl_popcnt64", 0, "", net_types},

      // Parallel compare & reduce.
      {"enetstl_find_u32", 0, "", net_types},
      {"enetstl_find_u16", 0, "", net_types},
      {"enetstl_find_key16", 0, "", net_types},
      {"enetstl_cmp_key32", 0, "", net_types},
      {"enetstl_min_index_u32", 0, "", net_types},
      {"enetstl_max_index_u32", 0, "", net_types},

      // Hashing and fused post-hash operations.
      {"enetstl_hw_hash_crc", 0, "", net_types},
      {"enetstl_multi_hash8_to_mem", 0, "", net_types},
      // Batched interfaces: one call boundary per burst, with grouped
      // software prefetch of the addressed buckets (stage 1 of the
      // two-stage batched lookup; eBPF itself has no prefetch instruction).
      {"enetstl_hw_hash_crc_batch", 0, "", net_types},
      {"enetstl_hash_prefetch_batch", 0, "", net_types},
      {"enetstl_multi_hash_prefetch_batch", 0, "", net_types},
      {"enetstl_hash_cnt", 0, "", net_types},
      {"enetstl_hash_cnt_min", 0, "", net_types},
      {"enetstl_hash_set_bits", 0, "", net_types},
      {"enetstl_hash_test_bits", 0, "", net_types},
      {"enetstl_hash_cmp", 0, "", net_types},
      {"enetstl_hash_positions", 0, "", net_types},
      {"enetstl_hash_mask_or", 0, "", net_types},
      {"enetstl_hash_mask_and", 0, "", net_types},
      {"enetstl_hash_mask_and_batch", 0, "", net_types},

      // List-buckets data structure (instances are kptrs: alloc/destroy form
      // an acquire/release pair of class "list_buckets").
      {"enetstl_lb_alloc", ebpf::kKfAcquire | ebpf::kKfRetNull, "list_buckets",
       net_types},
      {"enetstl_lb_destroy", ebpf::kKfRelease, "list_buckets", net_types},
      {"enetstl_lb_insert_front", ebpf::kKfTrustedArgs, "list_buckets",
       net_types},
      {"enetstl_lb_insert_tail", ebpf::kKfTrustedArgs, "list_buckets",
       net_types},
      {"enetstl_lb_pop_front", ebpf::kKfTrustedArgs, "list_buckets", net_types},
      {"enetstl_lb_pop_front_batch", ebpf::kKfTrustedArgs, "list_buckets",
       net_types},
      {"enetstl_lb_peek_front", ebpf::kKfTrustedArgs, "list_buckets", net_types},
      {"enetstl_lb_first_nonempty", ebpf::kKfTrustedArgs, "list_buckets",
       net_types},

      // Random pools.
      {"enetstl_rpool_alloc", ebpf::kKfAcquire | ebpf::kKfRetNull, "rpool",
       net_types},
      {"enetstl_rpool_destroy", ebpf::kKfRelease, "rpool", net_types},
      {"enetstl_rpool_next", ebpf::kKfTrustedArgs, "rpool", net_types},
      {"enetstl_geo_rpool_alloc", ebpf::kKfAcquire | ebpf::kKfRetNull, "rpool",
       net_types},
      {"enetstl_geo_rpool_next", ebpf::kKfTrustedArgs, "rpool", net_types},
  };

  int registered = 0;
  for (const KfuncDesc& desc : descs) {
    if (registry.Register(desc)) {
      ++registered;
    }
  }
  return registered;
}

}  // namespace enetstl
