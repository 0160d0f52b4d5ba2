#include "apps/app_chains.h"

#include <stdexcept>
#include <utility>

#include "apps/ebpf_sketch.h"
#include "apps/pcn_bridge.h"
#include "nf/nf_registry.h"

namespace apps {

namespace {

// App cores by variant: kEbpf is the origin (BPF-map) core, kEnetstl the
// swapped core. Apps have no kernel-native build.
bool CoreForVariant(nf::Variant variant, CoreKind* core) {
  switch (variant) {
    case nf::Variant::kEbpf:
      *core = CoreKind::kOrigin;
      return true;
    case nf::Variant::kEnetstl:
      *core = CoreKind::kEnetstl;
      return true;
    case nf::Variant::kKernel:
      return false;
  }
  return false;
}

void RegisterPcnBridge(nf::NfRegistry& registry) {
  nf::NfEntry entry;
  entry.name = "pcn-chain";
  entry.category = "application";
  entry.variants = {nf::Variant::kEbpf, nf::Variant::kEnetstl};
  entry.caps.batched = true;  // chain-backed burst path
  entry.factory =
      [](nf::Variant v) -> std::unique_ptr<nf::NetworkFunction> {
    CoreKind core;
    if (!CoreForVariant(v, &core)) {
      return nullptr;
    }
    return std::make_unique<PcnBridge>(core, PcnBridgeConfig{});
  };
  registry.Register(std::move(entry));
}

void RegisterKatranLb(nf::NfRegistry& registry) {
  nf::NfEntry entry;
  entry.name = "katran-lb";
  entry.category = "application";
  entry.variants = {nf::Variant::kEbpf, nf::Variant::kEnetstl};
  entry.caps.batched = true;
  entry.factory =
      [](nf::Variant v) -> std::unique_ptr<nf::NetworkFunction> {
    CoreKind core;
    if (!CoreForVariant(v, &core)) {
      return nullptr;
    }
    return std::make_unique<KatranLb>(core, KatranConfig{});
  };
  registry.Register(std::move(entry));
}

void RegisterRakeLimit(nf::NfRegistry& registry) {
  nf::NfEntry entry;
  entry.name = "rakelimit";
  entry.category = "application";
  entry.variants = {nf::Variant::kEbpf, nf::Variant::kEnetstl};
  entry.factory =
      [](nf::Variant v) -> std::unique_ptr<nf::NetworkFunction> {
    CoreKind core;
    if (!CoreForVariant(v, &core)) {
      return nullptr;
    }
    return std::make_unique<RakeLimit>(core, RakeLimitConfig{});
  };
  registry.Register(std::move(entry));
}

void RegisterSketchService(nf::NfRegistry& registry) {
  nf::NfEntry entry;
  entry.name = "sketch-service";
  entry.category = "application";
  entry.variants = {nf::Variant::kEbpf, nf::Variant::kEnetstl};
  entry.factory =
      [](nf::Variant v) -> std::unique_ptr<nf::NetworkFunction> {
    CoreKind core;
    if (!CoreForVariant(v, &core)) {
      return nullptr;
    }
    return std::make_unique<SketchService>(core, SketchServiceConfig{});
  };
  registry.Register(std::move(entry));
}

void RegisterLbChain(nf::NfRegistry& registry) {
  nf::NfEntry entry;
  entry.name = "lb-chain";
  entry.category = "application";
  entry.variants = {nf::Variant::kEbpf, nf::Variant::kEnetstl};
  entry.caps.batched = true;  // ChainExecutor bursts natively
  entry.factory =
      [](nf::Variant v) -> std::unique_ptr<nf::NetworkFunction> {
    CoreKind core;
    if (!CoreForVariant(v, &core)) {
      return nullptr;
    }
    return MakeLbChain(core);
  };
  registry.Register(std::move(entry));
}

}  // namespace

std::unique_ptr<nf::ChainExecutor> MakeLbChain(
    CoreKind core, const RakeLimitConfig& rake_config,
    const KatranConfig& katran_config) {
  auto chain = std::make_unique<nf::ChainExecutor>("lb-chain");
  chain->AddStage(std::make_unique<RakeLimit>(core, rake_config));
  chain->AddStage(std::make_unique<KatranLb>(core, katran_config));
  const ebpf::VerifyResult result = chain->Load();
  if (!result.ok) {
    throw std::logic_error("lb-chain failed verification: " +
                           (result.errors.empty() ? std::string("?")
                                                  : result.errors.front()));
  }
  // Load() folded the chain into its single-pass fused program; a backend
  // swap (SwapLbBackends) re-folds it at the commit.
  return chain;
}

nf::ReconfigResult SwapLbBackends(nf::ChainReconfig& plane,
                                  const std::vector<ebpf::u32>& backends,
                                  const nf::SwapOptions& options) {
  // Clone the running stage's core and config, changing only the backend
  // set; the replacement inherits the connection table via state transfer.
  const KatranLb* running = nullptr;
  nf::ChainExecutor& chain = plane.chain();
  for (ebpf::u32 i = 0; i < chain.depth(); ++i) {
    running = dynamic_cast<const KatranLb*>(&chain.stage(i));
    if (running != nullptr) {
      break;
    }
  }
  if (running == nullptr) {
    nf::ReconfigResult result;
    result.error = nf::ReconfigError::kBadStage;
    result.message = "chain '" + std::string(chain.name()) +
                     "' has no katran-lb stage";
    return result;
  }
  KatranConfig config = running->config();
  config.backends = backends;
  config.num_backends = static_cast<ebpf::u32>(backends.size());
  auto replacement = std::make_unique<KatranLb>(running->core(), config);
  return plane.SwapNfWith("katran-lb", std::move(replacement), options);
}

void RegisterAppNfs() {
  static const bool registered = [] {
    nf::NfRegistry& registry = nf::NfRegistry::Global();
    RegisterPcnBridge(registry);
    RegisterKatranLb(registry);
    RegisterRakeLimit(registry);
    RegisterSketchService(registry);
    RegisterLbChain(registry);
    return true;
  }();
  (void)registered;
}

}  // namespace apps
