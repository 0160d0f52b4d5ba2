#include "apps/katran_lb.h"

#include <cstddef>
#include <cstring>

#include "core/hash.h"
#include "obs/telemetry.h"

namespace apps {

std::vector<u32> BuildMaglevRing(const std::vector<u32>& backends,
                                 u32 ring_size, u32 seed) {
  constexpr u32 kUnset = 0xffffffffu;
  std::vector<u32> ring(ring_size, kUnset);
  if (backends.empty()) {
    return ring;
  }
  // Per-backend permutation parameters (offset, skip) from two hashes of
  // the backend identifier.
  struct Perm {
    u32 offset;
    u32 skip;
    u32 next = 0;  // how many permutation steps this backend has consumed
  };
  std::vector<Perm> perms;
  perms.reserve(backends.size());
  for (u32 backend : backends) {
    Perm p;
    p.offset = enetstl::XxHash32(&backend, sizeof(backend), seed) % ring_size;
    p.skip = enetstl::XxHash32(&backend, sizeof(backend), seed ^ 0x9e3779b9u) %
                 (ring_size - 1) +
             1;
    perms.push_back(p);
  }
  // Round-robin: each backend claims its next unclaimed permutation slot.
  u32 filled = 0;
  while (filled < ring_size) {
    for (std::size_t b = 0; b < backends.size() && filled < ring_size; ++b) {
      Perm& p = perms[b];
      u32 slot;
      do {
        slot = (p.offset + p.next * p.skip) % ring_size;
        ++p.next;
      } while (ring[slot] != kUnset);
      ring[slot] = backends[b];
      ++filled;
    }
  }
  return ring;
}

KatranLb::KatranLb(CoreKind core, const KatranConfig& config)
    : core_(core), config_(config) {
  std::vector<u32> backends = config.backends;
  if (backends.empty()) {
    backends.resize(config.num_backends);
    for (u32 b = 0; b < config.num_backends; ++b) {
      backends[b] = b;
    }
  }
  ring_ = BuildMaglevRing(backends, config.ring_size, config.seed);
  obs_scope_ = obs::Telemetry::Global().RegisterScope("app/katran-lb");
  // Both cores track connections through the shared conntrack engines. The
  // LB's virtual clock never advances (now = 0), so entries live until LRU
  // pressure or an explicit teardown — the original conn-table semantics.
  nf::FlowTableConfig ft;
  ft.max_flows = config.conn_table_size;
  ft.seed = config.seed;
  if (core_ == CoreKind::kOrigin) {
    lru_conn_ = std::make_unique<nf::LruFlowTable>(ft);
  } else {
    conn_ = std::make_unique<nf::FlowTable>(ft);
  }
}

u32 KatranLb::PickBackend(const ebpf::FiveTuple& tuple) {
  if (core_ == CoreKind::kOrigin) {
    // BPF LRU hash lookup (helper call).
    if (nf::CtFlowValue* v = lru_conn_->Find(tuple, 0)) {
      ++hits_;
      return v->value;
    }
    ++misses_;
    const u32 h = enetstl::XxHash32Bpf(&tuple, sizeof(tuple), config_.seed);
    const u32 backend = ring_[h % config_.ring_size];
    lru_conn_->Insert(tuple, nf::FlowTable::ReverseTuple(tuple), backend,
                      nf::FlowState::kEstablished, 0, 0, 0);
    return backend;
  }
  // eNetSTL core: arena-backed paired flow table + hardware CRC ring hash.
  u8 dir;
  u32 handle;
  if (nf::FlowEntry* e = conn_->Find(tuple, 0, &dir, &handle)) {
    ++hits_;
    return e->value;
  }
  ++misses_;
  const u32 h = enetstl::HwHashCrc(&tuple, sizeof(tuple), config_.seed);
  const u32 backend = ring_[h % config_.ring_size];
  conn_->Insert(tuple, nf::FlowTable::ReverseTuple(tuple), backend,
                nf::FlowState::kEstablished, 0, 0, 0, &handle);
  return backend;
}

bool KatranLb::ExportState(std::vector<ebpf::u8>& out) const {
  const auto append = [&out](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const ebpf::u8*>(p);
    out.insert(out.end(), bytes, bytes + n);
  };
  const std::size_t count_at = out.size();
  u32 count = 0;
  append(&count, sizeof(count));  // patched below
  const auto emit = [&](const ebpf::FiveTuple& tuple, u64 backend) {
    const u32 b = static_cast<u32>(backend);
    append(&tuple, sizeof(tuple));
    append(&b, sizeof(b));
    ++count;
  };
  if (core_ == CoreKind::kOrigin) {
    lru_conn_->ForEachForwardOldestFirst(
        [&](const ebpf::FiveTuple& tuple, const nf::CtFlowValue& v) {
          emit(tuple, v.value);
        });
  } else {
    conn_->ForEachLruOldestFirst(
        [&](const nf::FlowEntry& e) { emit(e.key[0], e.value); });
  }
  std::memcpy(out.data() + count_at, &count, sizeof(count));
  return true;
}

bool KatranLb::ImportState(const ebpf::u8* data, std::size_t len) {
  constexpr std::size_t kEntrySize = sizeof(ebpf::FiveTuple) + sizeof(u32);
  u32 count = 0;
  if (len < sizeof(count)) {
    return false;
  }
  std::memcpy(&count, data, sizeof(count));
  if (len != sizeof(count) + static_cast<std::size_t>(count) * kEntrySize) {
    return false;
  }
  const ebpf::u8* p = data + sizeof(count);
  for (u32 i = 0; i < count; ++i) {
    ebpf::FiveTuple tuple;
    u32 backend;
    std::memcpy(&tuple, p, sizeof(tuple));
    std::memcpy(&backend, p + sizeof(tuple), sizeof(backend));
    p += kEntrySize;
    // Replay through the normal record path: existing connections keep the
    // exported backend even if this instance's ring would pick differently
    // (connection affinity survives the backend-set change). Records arrive
    // oldest-first, so the replay reproduces LRU eviction order too.
    if (core_ == CoreKind::kOrigin) {
      lru_conn_->Insert(tuple, nf::FlowTable::ReverseTuple(tuple), backend,
                        nf::FlowState::kEstablished, 0, 0, 0);
    } else {
      u32 handle;
      conn_->Insert(tuple, nf::FlowTable::ReverseTuple(tuple), backend,
                    nf::FlowState::kEstablished, 0, 0, 0, &handle);
    }
  }
  return true;
}

ebpf::XdpAction KatranLb::Process(ebpf::XdpContext& ctx) {
  obs::ScalarSample sample(obs_scope_);
  ebpf::FiveTuple tuple;
  if (!ebpf::ParseFiveTuple(ctx, &tuple)) {
    return ebpf::XdpAction::kAborted;
  }
  if (sample.armed()) {
    sample.set_flow(tuple.src_ip);
  }
  (void)PickBackend(tuple);
  return ebpf::XdpAction::kTx;
}

void KatranLb::ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                            ebpf::XdpAction* verdicts) {
  if (core_ == CoreKind::kOrigin) {
    // The BPF LRU hash has no batched lookup primitive; scalar loop (which
    // samples per packet through Process).
    nf::NetworkFunction::ProcessBurst(ctxs, count, verdicts);
    return;
  }
  // Burst-average attribution, as on the chain burst path: the batched core
  // bypasses Process, so the burst itself is the sampling unit.
  const bool sample_burst =
      obs::kCompiledIn && obs::Telemetry::Global().enabled();
  const u64 t0 = sample_burst ? ebpf::helpers::BpfKtimeGetNs() : 0;
  nf::ForEachNfChunk(count, [&](u32 start, u32 chunk) {
    ebpf::FiveTuple keys[nf::kMaxNfBurst];
    nf::FlowTable::Lookup looks[nf::kMaxNfBurst];
    u32 idx[nf::kMaxNfBurst];
    u32 parsed = 0;
    for (u32 i = 0; i < chunk; ++i) {
      if (ebpf::ParseFiveTuple(ctxs[start + i], &keys[parsed])) {
        idx[parsed++] = start + i;
      } else {
        verdicts[start + i] = ebpf::XdpAction::kAborted;
      }
    }
    // Batched two-stage paired probe over the whole burst; Revalidate
    // resolves each result against the table as earlier inserts (and their
    // LRU evictions) left it, so a new flow repeated within the burst counts
    // as a hit and an evicted one as a miss, as per packet.
    conn_->FindBatch(keys, parsed, 0, looks);
    for (u32 i = 0; i < parsed; ++i) {
      u8 dir = 0;
      u32 handle = nf::FlowTable::kNullRef;
      if (conn_->Revalidate(keys[i], looks[i], 0, &dir, &handle) != nullptr) {
        ++hits_;
      } else {
        ++misses_;
        const u32 h =
            enetstl::HwHashCrc(&keys[i], sizeof(keys[i]), config_.seed);
        conn_->Insert(keys[i], nf::FlowTable::ReverseTuple(keys[i]),
                      ring_[h % config_.ring_size],
                      nf::FlowState::kEstablished, 0, 0, 0, &handle);
      }
      verdicts[idx[i]] = ebpf::XdpAction::kTx;
    }
  });
  if (sample_burst) {
    obs::Telemetry::Global().RecordBurst(
        obs_scope_, ebpf::helpers::BpfKtimeGetNs() - t0, count,
        [&](u32 i) { return obs::FlowOf(ctxs[i]); });
  }
}

}  // namespace apps
