// Tests for the metadata-assisted verifier model: kfunc registry semantics,
// the rules enforced over program manifests, the runtime reference tracker,
// and the XdpProgram load-then-run lifecycle.
#include "ebpf/verifier.h"

#include <gtest/gtest.h>

#include "core/kfunc_defs.h"
#include "ebpf/program.h"

namespace ebpf {
namespace {

KfuncRegistry MakeTestRegistry() {
  KfuncRegistry reg;
  reg.Register({"acquire_thing", kKfAcquire | kKfRetNull, "thing",
                {ProgramType::kXdp}});
  reg.Register({"release_thing", kKfRelease, "thing", {ProgramType::kXdp}});
  reg.Register({"plain_op", 0, "", {}});  // allowed everywhere
  reg.Register({"tc_only", 0, "", {ProgramType::kTcIngress}});
  return reg;
}

TEST(KfuncRegistry, RegisterAndLookup) {
  KfuncRegistry reg;
  EXPECT_TRUE(reg.Register({"f", 0, "", {}}));
  EXPECT_FALSE(reg.Register({"f", kKfAcquire, "", {}}));  // duplicate ignored
  ASSERT_NE(reg.Lookup("f"), nullptr);
  EXPECT_EQ(reg.Lookup("f")->flags, 0u);  // original wins
  EXPECT_EQ(reg.Lookup("missing"), nullptr);
}

TEST(KfuncRegistry, EnetstlRegistrationIsIdempotent) {
  KfuncRegistry reg;
  const int first = enetstl::RegisterEnetstlKfuncs(reg);
  EXPECT_GT(first, 30);
  EXPECT_EQ(enetstl::RegisterEnetstlKfuncs(reg), 0);
  // Spot-check metadata.
  const KfuncDesc* alloc = reg.Lookup("enetstl_node_alloc");
  ASSERT_NE(alloc, nullptr);
  EXPECT_TRUE(alloc->flags & kKfAcquire);
  EXPECT_TRUE(alloc->flags & kKfRetNull);
  EXPECT_EQ(alloc->resource_class, "mw_node");
  const KfuncDesc* release = reg.Lookup("enetstl_node_release");
  ASSERT_NE(release, nullptr);
  EXPECT_TRUE(release->flags & kKfRelease);
  const KfuncDesc* mask_and_batch = reg.Lookup("enetstl_hash_mask_and_batch");
  ASSERT_NE(mask_and_batch, nullptr);
  EXPECT_EQ(mask_and_batch->flags, 0u);
}

TEST(Verifier, AcceptsWellFormedProgram) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "good";
  spec.type = ProgramType::kXdp;
  spec.helpers_used = {"bpf_map_lookup_elem", "bpf_get_prandom_u32"};
  spec.kfunc_calls = {{"acquire_thing", /*null_checked=*/true},
                      {"release_thing", false},
                      {"plain_op", false}};
  spec.max_loop_bound = 128;
  const VerifyResult result = verifier.Verify(spec);
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
}

TEST(Verifier, RejectsUnknownHelper) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "bad-helper";
  spec.helpers_used = {"bpf_totally_made_up"};
  EXPECT_FALSE(verifier.Verify(spec).ok);
}

TEST(Verifier, RejectsUnknownKfunc) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "bad-kfunc";
  spec.kfunc_calls = {{"nonexistent", true}};
  EXPECT_FALSE(verifier.Verify(spec).ok);
}

TEST(Verifier, RejectsMissingNullCheck) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "no-null-check";
  spec.kfunc_calls = {{"acquire_thing", /*null_checked=*/false},
                      {"release_thing", false}};
  const VerifyResult result = verifier.Verify(spec);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.errors[0].find("null check"), std::string::npos);
}

TEST(Verifier, RejectsLeakedReference) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "leak";
  spec.kfunc_calls = {{"acquire_thing", true}};  // never released
  const VerifyResult result = verifier.Verify(spec);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.errors[0].find("unreleased"), std::string::npos);
}

TEST(Verifier, RejectsReleaseWithoutAcquire) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "double-release";
  spec.kfunc_calls = {{"release_thing", false}};
  EXPECT_FALSE(verifier.Verify(spec).ok);
}

TEST(Verifier, BalancedMultipleAcquires) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "balanced";
  spec.kfunc_calls = {{"acquire_thing", true}, {"acquire_thing", true},
                      {"release_thing", false}, {"release_thing", false}};
  EXPECT_TRUE(verifier.Verify(spec).ok);
}

TEST(Verifier, RejectsWrongProgramType) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "xdp-calling-tc-kfunc";
  spec.type = ProgramType::kXdp;
  spec.kfunc_calls = {{"tc_only", false}};
  EXPECT_FALSE(verifier.Verify(spec).ok);
}

TEST(Verifier, RejectsUnboundedLoop) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "unbounded";
  spec.has_unbounded_loop = true;
  EXPECT_FALSE(verifier.Verify(spec).ok);
}

TEST(Verifier, RejectsExcessiveInstructionEstimate) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "too-big";
  spec.estimated_insns = Verifier::kMaxInsns + 1;
  EXPECT_FALSE(verifier.Verify(spec).ok);
  spec.estimated_insns = Verifier::kMaxInsns;
  EXPECT_TRUE(verifier.Verify(spec).ok);
}

TEST(Verifier, RejectsExcessiveLoopBound) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "too-long";
  spec.max_loop_bound = Verifier::kMaxLoopBound + 1;
  EXPECT_FALSE(verifier.Verify(spec).ok);
}

TEST(Verifier, CollectsAllErrors) {
  const KfuncRegistry reg = MakeTestRegistry();
  Verifier verifier(reg);
  ProgramSpec spec;
  spec.name = "multi-bad";
  spec.has_unbounded_loop = true;
  spec.helpers_used = {"nope"};
  spec.kfunc_calls = {{"acquire_thing", false}};
  const VerifyResult result = verifier.Verify(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.errors.size(), 3u);
}

TEST(RefLeakChecker, TracksAcquireRelease) {
  RefLeakChecker checker;
  int a = 0, b = 0;
  checker.OnAcquire(&a, "node");
  checker.OnAcquire(&b, "node");
  EXPECT_EQ(checker.LiveCount(), 2u);
  EXPECT_TRUE(checker.OnRelease(&a, "node"));
  EXPECT_EQ(checker.LiveCount(), 1u);
  EXPECT_FALSE(checker.OnRelease(&a, "node"));  // double release
  EXPECT_FALSE(checker.OnRelease(&b, "other"));  // wrong class
  EXPECT_EQ(checker.LiveCount("node"), 1u);
  checker.Reset();
  EXPECT_EQ(checker.LiveCount(), 0u);
}

TEST(XdpProgram, RunRequiresSuccessfulLoad) {
  KfuncRegistry reg = MakeTestRegistry();
  ProgramSpec spec;
  spec.name = "prog";
  spec.kfunc_calls = {{"acquire_thing", false}};  // will fail verification
  XdpProgram prog(spec, [](XdpContext&) { return XdpAction::kPass; });
  EXPECT_FALSE(prog.Load(reg).ok);
  u8 frame[kFrameSize] = {};
  XdpContext ctx{frame, frame + kFrameSize, 0};
  EXPECT_THROW(prog.Run(ctx), std::logic_error);
}

TEST(XdpProgram, LoadedProgramRuns) {
  KfuncRegistry reg = MakeTestRegistry();
  ProgramSpec spec;
  spec.name = "ok-prog";
  spec.helpers_used = {"bpf_map_lookup_elem"};
  XdpProgram prog(spec, [](XdpContext& ctx) {
    FiveTuple t;
    return ParseFiveTuple(ctx, &t) ? XdpAction::kPass : XdpAction::kDrop;
  });
  ASSERT_TRUE(prog.Load(reg).ok);
  FiveTuple tuple;
  tuple.src_ip = 0x0a000001;
  tuple.protocol = 17;
  u8 frame[kFrameSize];
  BuildFrame(tuple, frame);
  XdpContext ctx{frame, frame + kFrameSize, 0};
  EXPECT_EQ(prog.Run(ctx), XdpAction::kPass);
}

TEST(FrameFormat, BuildParseRoundTrip) {
  FiveTuple tuple;
  tuple.src_ip = 0xc0a80101;
  tuple.dst_ip = 0x08080808;
  tuple.src_port = 12345;
  tuple.dst_port = 443;
  tuple.protocol = 6;
  u8 frame[kFrameSize];
  BuildFrame(tuple, frame);
  XdpContext ctx{frame, frame + kFrameSize, 0};
  FiveTuple parsed;
  ASSERT_TRUE(ParseFiveTuple(ctx, &parsed));
  EXPECT_EQ(parsed, tuple);
}

TEST(FrameFormat, TruncatedFrameRejected) {
  FiveTuple tuple;
  u8 frame[kFrameSize];
  BuildFrame(tuple, frame);
  XdpContext ctx{frame, frame + 20, 0};  // too short
  FiveTuple parsed;
  EXPECT_FALSE(ParseFiveTuple(ctx, &parsed));
}

TEST(FrameFormat, NonIpv4Rejected) {
  u8 frame[kFrameSize] = {};  // ethertype 0
  XdpContext ctx{frame, frame + kFrameSize, 0};
  FiveTuple parsed;
  EXPECT_FALSE(ParseFiveTuple(ctx, &parsed));
}

}  // namespace
}  // namespace ebpf
