// Service-chain runtime: an ordered NF chain executed through the tail-call
// model (prog-array map, depth <= 33), over single packets and bursts.
//
// Scalar path — each stage is wrapped in an XdpProgram; stage i's program
// runs its NF and, on kPass, bpf_tail_calls stage i+1 through the prog array
// (the SRv6 service-function-chaining pattern). Any other verdict exits the
// chain with that verdict, exactly as an XDP program returning DROP/TX ends
// packet processing. Load() pushes every stage through the metadata-assisted
// verifier; a chain of more than ebpf::kMaxTailCallChain (33) programs is
// rejected at load time, mirroring MAX_TAIL_CALL_CNT.
//
// Burst path — one executor, the fused program (nf/fused_chain.h): Load()
// folds the stage set into a FusedChain, and the commit step of every stage
// edit folds a fresh one from the new stage set and swaps it in. The burst
// stays batched through the chain as a per-burst verdict bitmask; each stage
// sees exactly the packets (in exactly the order) it would see under
// per-packet scalar traversal, so chain verdicts are bit-identical to the
// scalar path, given stage ProcessBurst == scalar Process (the repo-wide
// batching invariant). The scalar tail-call walk is the semantic oracle.
#ifndef ENETSTL_NF_CHAIN_H_
#define ENETSTL_NF_CHAIN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/prog_array.h"
#include "nf/fused_chain.h"
#include "nf/nf_interface.h"
#include "nf/nf_registry.h"
#include "pktgen/sharded_pipeline.h"

namespace nf {

// An ordered NF chain that is itself a NetworkFunction, so chains register,
// bench, and shard exactly like single NFs (and can nest).
class ChainExecutor : public NetworkFunction {
 public:
  explicit ChainExecutor(std::string name = "chain");
  ~ChainExecutor() override;

  ChainExecutor(const ChainExecutor&) = delete;
  ChainExecutor& operator=(const ChainExecutor&) = delete;

  // Appends a stage; only valid before Load().
  ChainExecutor& AddStage(std::unique_ptr<NetworkFunction> stage);

  // Builds the per-stage XDP programs and the prog array, verifying every
  // program. The chain is runnable only if the result is ok; chains deeper
  // than ebpf::kMaxTailCallChain stages fail verification.
  ebpf::VerifyResult Load();
  bool loaded() const { return loaded_; }

  // Scalar path: one tail-call walk per packet. Throws (like
  // XdpProgram::Run) if the chain is not loaded.
  ebpf::XdpAction Process(ebpf::XdpContext& ctx) override;

  // Burst path: runs the fused program; accepts any count.
  void ProcessBurst(ebpf::XdpContext* ctxs, u32 count,
                    ebpf::XdpAction* verdicts) override;

  std::string_view name() const override { return name_; }
  // The weakest execution model among the stages dominates the label:
  // eNetSTL if any stage uses kfuncs, else eBPF if any stage is pure eBPF,
  // else kernel.
  Variant variant() const override;

  u32 depth() const { return static_cast<u32>(stages_.size()); }
  NetworkFunction& stage(u32 i) { return *stages_[i]; }
  const std::vector<pktgen::StageStats>& stage_stats() const {
    return stats_;
  }
  void ResetStageStats();

  // The fused program the next burst runs; null until Load() succeeds. A
  // committed edit replaces it, a rejected one leaves the same object.
  const FusedChain* fused_program() const { return fused_.get(); }
  const FusionStats& fusion_stats() const { return fusion_stats_; }

  // No-op, the chain is fused from Load() on; the benchmark is its only caller.
  void EnableFusion() {}
  // Returns fused(). The benchmark is its only caller.
  bool TryPromoteNow() { return fused(); }
  // True once the chain is loaded. The benchmark is its only caller.
  bool fused() const { return fused_ != nullptr; }

  // Atomically replaces stage `i`: builds and verifies a fresh program bound
  // to the new NF first, then commits by updating the PROG_ARRAY slot (the
  // live-update idiom prog arrays exist for) and swapping the stage in.
  // Ordering guarantees:
  //  * verification failure or a rejected prog-array update happens BEFORE
  //    anything is committed — the chain (including its fused program and
  //    generation) is left bit-identical to its pre-call state;
  //  * a successful replacement re-folds the fused program from the new
  //    stage set before the next burst (a fused program never outlives the
  //    stage set it was folded from).
  ebpf::VerifyResult ReplaceStage(u32 i,
                                  std::unique_ptr<NetworkFunction> stage);

  // Structural chain edits on a loaded chain. Stage program manifests
  // declare the remaining suffix depth, so an edit rebuilds and re-verifies
  // EVERY stage program and a fresh prog array aside, then commits the whole
  // set at once — no packet can observe a half-edited chain, and the
  // tail-call budget (<= 33 stages) is revalidated before any commit.
  // Failure leaves the chain bit-identical; success re-folds the fused
  // program. `pos` for InsertStage may equal depth() (append).
  ebpf::VerifyResult InsertStage(u32 pos,
                                 std::unique_ptr<NetworkFunction> stage);
  ebpf::VerifyResult RemoveStage(u32 pos);

 private:
  // Builds + verifies one stage program bound to `nf` at slot `i` of a chain
  // of `depth` stages, into *out. Binding the NF pointer at build time (not
  // looking stages_[i] up at run time) is what makes a prog-array slot
  // update the real commit point of a replacement: the old program keeps
  // running the old NF until the slot flips. Touches no chain state, so
  // build-aside-then-commit edits verify before mutating anything.
  ebpf::VerifyResult BuildProgramFor(NetworkFunction* nf, u32 i, u32 depth,
                                     std::unique_ptr<ebpf::XdpProgram>* out);
  std::vector<NetworkFunction*> StageView() const;
  // Builds + verifies one program per stage of `view` and a prog array
  // holding them. Touches no chain state, so edits build aside and commit
  // only once the whole set verifies.
  ebpf::VerifyResult BuildProgramSet(
      const std::vector<NetworkFunction*>& view,
      std::vector<std::unique_ptr<ebpf::XdpProgram>>* programs,
      std::unique_ptr<ebpf::ProgArrayMap>* array);
  // Installs a built set for the (already edited) stages_, rebinds every
  // stage and re-folds.
  void CommitProgramSet(
      std::vector<std::unique_ptr<ebpf::XdpProgram>> programs,
      std::unique_ptr<ebpf::ProgArrayMap> array);
  // Names stats_[i] after stage i and registers its telemetry scope.
  void BindStage(u32 i);
  // Folds the current stage set into a fresh fused program and swaps it in:
  // the last step of Load() and of every committed edit.
  void Refold();

  std::string name_;
  std::vector<std::unique_ptr<NetworkFunction>> stages_;
  std::vector<std::unique_ptr<ebpf::XdpProgram>> programs_;
  std::unique_ptr<ebpf::ProgArrayMap> prog_array_;
  std::vector<pktgen::StageStats> stats_;
  // Telemetry scope per stage ("<chain>/<i>:<stage>"), registered at Load();
  // obs::kInvalidScope when the observability plane is compiled out.
  std::vector<u16> stage_scopes_;
  bool loaded_ = false;

  std::unique_ptr<FusedChain> fused_;
  FusionStats fusion_stats_;
};

// Builds (and Load()s) a chain whose stages are registry NFs in the given
// variant, each primed with its bench resident state against `env` so
// membership/classification stages see their intended hit rates. Returns
// nullptr when a name is unknown, the variant is unsupported, or the chain
// fails to load (e.g. more than 33 stages).
std::unique_ptr<ChainExecutor> MakeBenchChain(
    const std::vector<std::string>& stage_names, Variant variant,
    const BenchEnv& env, std::string chain_name = "chain");

// Adapts a per-cpu chain factory into a ShardedPipeline program factory:
// every shard drives its own chain replica (the RSS model — flow-disjoint
// shards, no cross-core state), and each chain's per-stage counters are
// exported into ShardStats::stages when the run finishes.
pktgen::ShardedPipeline::ProgramFactory ShardedChainFactory(
    std::function<std::shared_ptr<ChainExecutor>(u32 cpu)> make_chain);

}  // namespace nf

#endif  // ENETSTL_NF_CHAIN_H_
