#include "nf/chain.h"

#include <stdexcept>
#include <utility>

#include "obs/telemetry.h"

namespace nf {

ChainExecutor::ChainExecutor(std::string name) : name_(std::move(name)) {}

ChainExecutor::~ChainExecutor() = default;

ChainExecutor& ChainExecutor::AddStage(std::unique_ptr<NetworkFunction> stage) {
  if (loaded_) {
    throw std::logic_error("ChainExecutor::AddStage after Load on '" + name_ +
                           "'");
  }
  stages_.push_back(std::move(stage));
  return *this;
}

void ChainExecutor::BindStage(u32 i) {
  stats_[i].name = std::string(stages_[i]->name());
  // Registering scopes also constructs the telemetry singleton, which
  // registers the ringbuf kfuncs the stage manifests declare.
  stage_scopes_[i] = obs::Telemetry::Global().RegisterScope(
      name_ + "/" + std::to_string(i) + ":" + stats_[i].name);
}

void ChainExecutor::Refold() {
  std::vector<FusedStage> folded(depth());
  for (u32 i = 0; i < depth(); ++i) {
    FusedStage& stage = folded[i];
    stage.nf = stages_[i].get();
    stage.scope = stage_scopes_[i];
    stage.stats = &stats_[i];
    if (auto op = stages_[i]->LowerToKeyOp()) {
      stage.lowered = true;
      stage.contains = std::move(op->contains);
    }
  }
  std::unique_ptr<FusedChain> fused = FusedChain::Fuse(std::move(folded));
  if (fused == nullptr) {
    // Unreachable: Load() and every edit check the depth and stage set
    // that Fuse() re-checks before they commit.
    throw std::logic_error(name_ + ": a verified stage set failed to fold");
  }
  fused_ = std::move(fused);
  ++fusion_stats_.generation;
}

ebpf::VerifyResult ChainExecutor::BuildProgramFor(
    NetworkFunction* nf, u32 i, u32 depth,
    std::unique_ptr<ebpf::XdpProgram>* out) {
  ebpf::ProgramSpec spec;
  spec.name = name_ + "/" + std::string(nf->name());
  spec.type = ebpf::ProgramType::kXdp;
  // Stage i can still walk through every downstream stage, so its declared
  // chain depth is the remaining suffix; the entry program declares the
  // full chain and is what trips the 33-program limit.
  spec.tail_call_chain_depth = depth - i;
  if (i + 1 < depth) {
    spec.helpers_used.push_back("bpf_tail_call");
  }
  if constexpr (obs::kCompiledIn) {
    // The sampled path times the stage and emits a ring event; the
    // manifest declares it so the verifier sees the acquire/release pair.
    spec.helpers_used.push_back("bpf_ktime_get_ns");
    spec.kfunc_calls.push_back({"bpf_ringbuf_reserve", true});
    spec.kfunc_calls.push_back({"bpf_ringbuf_submit", false});
  }
  const bool last = i + 1 == depth;
  // The NF pointer is bound here, at build time: a replacement program runs
  // its replacement NF, and the old program keeps running the old NF until
  // the prog-array slot flips — that slot update is the commit point.
  *out = std::make_unique<ebpf::XdpProgram>(
      std::move(spec),
      [this, nf, i, last](ebpf::XdpContext& ctx) -> ebpf::XdpAction {
        pktgen::StageStats& stats = stats_[i];
        ++stats.in;
        ebpf::XdpAction action;
        {
          // Scoped so the sample covers only this stage's Process, not
          // the tail-called suffix below.
          obs::ScalarSample sample(stage_scopes_[i]);
          if (sample.armed()) {
            sample.set_flow(obs::FlowOf(ctx));
          }
          action = nf->Process(ctx);
        }
        stats.Count(action);
        if (action != ebpf::XdpAction::kPass || last) {
          return action;
        }
        if (auto verdict = ebpf::TailCall(ctx, *prog_array_, i + 1)) {
          return *verdict;
        }
        // Tail-call failure (missing slot / depth budget spent): the real
        // program would fall through; with nothing after the call, the
        // packet exits with the stage verdict.
        return action;
      });
  return (*out)->Load();
}

std::vector<NetworkFunction*> ChainExecutor::StageView() const {
  std::vector<NetworkFunction*> view;
  view.reserve(stages_.size());
  for (const auto& stage : stages_) {
    view.push_back(stage.get());
  }
  return view;
}

ebpf::VerifyResult ChainExecutor::BuildProgramSet(
    const std::vector<NetworkFunction*>& view,
    std::vector<std::unique_ptr<ebpf::XdpProgram>>* programs,
    std::unique_ptr<ebpf::ProgArrayMap>* array) {
  ebpf::VerifyResult result;
  const u32 depth = static_cast<u32>(view.size());
  programs->clear();
  programs->resize(depth);
  *array = std::make_unique<ebpf::ProgArrayMap>(depth);
  for (u32 i = 0; i < depth; ++i) {
    const ebpf::VerifyResult stage_result =
        BuildProgramFor(view[i], i, depth, &(*programs)[i]);
    if (!stage_result.ok) {
      result.ok = false;
      for (const std::string& error : stage_result.errors) {
        result.errors.push_back(error);
      }
    }
  }
  if (!result.ok) {
    return result;
  }
  for (u32 i = 0; i < depth; ++i) {
    if ((*array)->UpdateElem(i, (*programs)[i].get()) != ebpf::kOk) {
      result.Fail(name_ + ": prog array rejected stage " + std::to_string(i));
      break;
    }
  }
  return result;
}

void ChainExecutor::CommitProgramSet(
    std::vector<std::unique_ptr<ebpf::XdpProgram>> programs,
    std::unique_ptr<ebpf::ProgArrayMap> array) {
  programs_ = std::move(programs);
  prog_array_ = std::move(array);
  // Scope names embed the stage index, so every slot re-registers; the
  // surviving stages keep their verdict counters.
  stage_scopes_.assign(depth(), obs::kInvalidScope);
  for (u32 i = 0; i < depth(); ++i) {
    BindStage(i);
  }
  Refold();
}

ebpf::VerifyResult ChainExecutor::Load() {
  ebpf::VerifyResult result;
  if (stages_.empty()) {
    result.Fail(name_ + ": chain has no stages");
    return result;
  }

  // Binding the stages registers their scopes first, which constructs the
  // telemetry singleton the stage manifests' ringbuf kfuncs need.
  stats_.assign(depth(), pktgen::StageStats{});
  stage_scopes_.assign(depth(), obs::kInvalidScope);
  for (u32 i = 0; i < depth(); ++i) {
    BindStage(i);
  }
  result = BuildProgramSet(StageView(), &programs_, &prog_array_);

  // (Re)loading rebuilt every program: fold a fresh fused program, or drop
  // the previous one if the chain is no longer runnable.
  if (result.ok) {
    Refold();
  } else {
    fused_.reset();
  }
  loaded_ = result.ok;
  return result;
}

ebpf::VerifyResult ChainExecutor::ReplaceStage(
    u32 i, std::unique_ptr<NetworkFunction> stage) {
  ebpf::VerifyResult result;
  if (!loaded_ || i >= depth() || stage == nullptr) {
    result.Fail(name_ + ": ReplaceStage(" + std::to_string(i) +
                ") on unloaded chain or bad argument");
    return result;
  }

  // Build + verify the replacement program aside. Nothing is committed yet:
  // a rejected replacement must leave the chain bit-identical — old stage,
  // old program, the same fused program and generation (the pre-commit
  // rollback contract of the reconfig plane relies on it).
  std::unique_ptr<ebpf::XdpProgram> program;
  result = BuildProgramFor(stage.get(), i, depth(), &program);
  if (!result.ok) {
    return result;
  }

  // Commit point: the PROG_ARRAY slot update. If the helper rejects it
  // (injected -ENOMEM), the slot still holds the old program and no chain
  // state has changed.
  if (prog_array_->UpdateElem(i, program.get()) != ebpf::kOk) {
    result.Fail(name_ + ": prog array rejected replacement stage " +
                std::to_string(i));
    return result;
  }

  // Committed: swap the stage in and re-fold, so the next burst runs a
  // fused program built from the new stage set.
  stages_[i] = std::move(stage);
  programs_[i] = std::move(program);
  stats_[i] = pktgen::StageStats{};
  BindStage(i);
  Refold();
  return result;
}

ebpf::VerifyResult ChainExecutor::InsertStage(
    u32 pos, std::unique_ptr<NetworkFunction> stage) {
  ebpf::VerifyResult result;
  if (!loaded_ || pos > depth() || stage == nullptr) {
    result.Fail(name_ + ": InsertStage(" + std::to_string(pos) +
                ") on unloaded chain or bad argument");
    return result;
  }
  const u32 new_depth = depth() + 1;
  // Tail-call budget revalidation before anything is built: an edit may
  // never produce a chain Load() would reject.
  if (new_depth > ebpf::kMaxTailCallChain) {
    result.Fail(name_ + ": InsertStage would exceed the tail-call budget (" +
                std::to_string(new_depth) + " > " +
                std::to_string(ebpf::kMaxTailCallChain) + ")");
    return result;
  }

  // Post-edit stage view (suffix depths shift, so every program rebuilds).
  std::vector<NetworkFunction*> view = StageView();
  view.insert(view.begin() + pos, stage.get());
  std::vector<std::unique_ptr<ebpf::XdpProgram>> programs;
  std::unique_ptr<ebpf::ProgArrayMap> array;
  result = BuildProgramSet(view, &programs, &array);
  if (!result.ok) {
    return result;  // nothing committed; chain bit-identical
  }

  // Commit the whole post-edit set at once (no packet observes a mix of old
  // and new suffix depths).
  stages_.insert(stages_.begin() + pos, std::move(stage));
  stats_.insert(stats_.begin() + pos, pktgen::StageStats{});
  CommitProgramSet(std::move(programs), std::move(array));
  return result;
}

ebpf::VerifyResult ChainExecutor::RemoveStage(u32 pos) {
  ebpf::VerifyResult result;
  if (!loaded_ || pos >= depth()) {
    result.Fail(name_ + ": RemoveStage(" + std::to_string(pos) +
                ") on unloaded chain or bad position");
    return result;
  }
  if (depth() == 1) {
    result.Fail(name_ + ": RemoveStage would leave an empty chain");
    return result;
  }

  std::vector<NetworkFunction*> view = StageView();
  view.erase(view.begin() + pos);
  std::vector<std::unique_ptr<ebpf::XdpProgram>> programs;
  std::unique_ptr<ebpf::ProgArrayMap> array;
  result = BuildProgramSet(view, &programs, &array);
  if (!result.ok) {
    return result;
  }

  // Commit. The old fused program still holds the removed stage's NF
  // pointer until CommitProgramSet re-folds, but no burst runs in between.
  stages_.erase(stages_.begin() + pos);
  stats_.erase(stats_.begin() + pos);
  CommitProgramSet(std::move(programs), std::move(array));
  return result;
}

ebpf::XdpAction ChainExecutor::Process(ebpf::XdpContext& ctx) {
  if (!loaded_) {
    throw std::logic_error("ChainExecutor::Process on unloaded chain '" +
                           name_ + "'");
  }
  return ebpf::RunChainEntry(*programs_[0], ctx);
}

void ChainExecutor::ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                                 ebpf::XdpAction* verdicts) {
  if (!loaded_) {
    throw std::logic_error("ChainExecutor::ProcessBurst on unloaded chain '" +
                           name_ + "'");
  }
  ++fusion_stats_.fused_bursts;
  fusion_stats_.fused_packets += count;
  fused_->ExecuteBurst(ctxs, count, verdicts);
}

Variant ChainExecutor::variant() const {
  bool has_enetstl = false;
  bool has_ebpf = false;
  for (const auto& stage : stages_) {
    switch (stage->variant()) {
      case Variant::kEnetstl:
        has_enetstl = true;
        break;
      case Variant::kEbpf:
        has_ebpf = true;
        break;
      case Variant::kKernel:
        break;
    }
  }
  if (has_enetstl) {
    return Variant::kEnetstl;
  }
  return has_ebpf ? Variant::kEbpf : Variant::kKernel;
}

void ChainExecutor::ResetStageStats() {
  for (pktgen::StageStats& stats : stats_) {
    std::string name = std::move(stats.name);
    stats = pktgen::StageStats{};
    stats.name = std::move(name);
  }
}

std::unique_ptr<ChainExecutor> MakeBenchChain(
    const std::vector<std::string>& stage_names, Variant variant,
    const BenchEnv& env, std::string chain_name) {
  auto chain = std::make_unique<ChainExecutor>(std::move(chain_name));
  for (const std::string& name : stage_names) {
    const NfEntry* entry = NfRegistry::Global().Lookup(name);
    if (entry == nullptr || !entry->Supports(variant)) {
      return nullptr;
    }
    NfVariantSetup setup = MakeVariantSetup(*entry, variant, env);
    if (setup.nf == nullptr) {
      return nullptr;
    }
    chain->AddStage(std::move(setup.nf));
  }
  if (!chain->Load().ok) {
    return nullptr;
  }
  return chain;
}

pktgen::ShardedPipeline::ProgramFactory ShardedChainFactory(
    std::function<std::shared_ptr<ChainExecutor>(u32 cpu)> make_chain) {
  return [make_chain =
              std::move(make_chain)](u32 cpu) -> pktgen::ShardedPipeline::ShardProgram {
    std::shared_ptr<ChainExecutor> chain = make_chain(cpu);
    pktgen::ShardedPipeline::ShardProgram program;
    program.handler = [chain](ebpf::XdpContext* ctxs, u32 count,
                              ebpf::XdpAction* verdicts) {
      chain->ProcessBurst(ctxs, count, verdicts);
    };
    program.finish = [chain](pktgen::ShardedPipeline::ShardStats& shard) {
      shard.stages = chain->stage_stats();
    };
    return program;
  };
}

}  // namespace nf
