//===- tests/GenTests.cpp - Generator contract tests --------------------------===//
//
// The generator's own guarantees (src/gen/Generator.h): byte-determinism
// across repeated calls and across 1/2/8-thread generation, structural
// distinctness of distinct seeds, option adherence (object counts, op
// counts), gen-spec parsing, and validity (verify + points-to + profile)
// across a seed sweep. Cross-process byte-identity is asserted by the
// `tool_gen_two_process_identical` ctest entry, which diffs two separate
// `gdptool gen` invocations.
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"
#include "gen/Generator.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "partition/Pipeline.h"
#include "support/ThreadPool.h"
#include "tests/GenTestUtil.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace gdp;

namespace {

std::string textOf(const gen::GenOptions &Opt) {
  std::unique_ptr<Program> P = gen::generateProgram(Opt);
  EXPECT_NE(P, nullptr) << gen::reproCommand(Opt);
  return P ? printProgram(*P, /*IncludeInit=*/true) : std::string();
}

/// The program body without the name header line — seed-distinctness must
/// hold structurally, not just because the seed is embedded in the name.
std::string bodyOf(const std::string &Text) {
  size_t NL = Text.find('\n');
  return NL == std::string::npos ? Text : Text.substr(NL + 1);
}

TEST(GenDeterminism, RepeatedCallsAreByteIdentical) {
  for (uint64_t Seed : {1, 5, 23}) {
    gen::GenOptions Opt = gen::GenOptions::property(Seed);
    EXPECT_EQ(textOf(Opt), textOf(Opt)) << gen::reproCommand(Opt);
  }
}

TEST(GenDeterminism, ByteIdenticalAcrossThreadCounts) {
  std::vector<uint64_t> Seeds;
  for (uint64_t S = 1; S <= 8; ++S)
    Seeds.push_back(S);
  std::vector<std::string> Serial;
  for (uint64_t S : Seeds)
    Serial.push_back(textOf(gen::GenOptions::property(S)));
  for (unsigned Threads : {2u, 8u}) {
    support::ThreadPool Pool(Threads - 1);
    std::vector<std::string> Parallel =
        Pool.parallelMap(Seeds, [](const uint64_t &S) {
          return textOf(gen::GenOptions::property(S));
        });
    for (size_t I = 0; I != Seeds.size(); ++I)
      EXPECT_EQ(Serial[I], Parallel[I])
          << "seed " << Seeds[I] << " at " << Threads << " threads";
  }
}

TEST(GenDeterminism, DistinctSeedsProduceDistinctPrograms) {
  std::vector<std::string> Bodies;
  for (uint64_t S = 1; S <= 20; ++S)
    Bodies.push_back(bodyOf(textOf(gen::GenOptions::property(S))));
  for (size_t I = 0; I != Bodies.size(); ++I)
    for (size_t J = I + 1; J != Bodies.size(); ++J)
      EXPECT_NE(Bodies[I], Bodies[J])
          << "seeds " << I + 1 << " and " << J + 1
          << " generated identical program bodies";
}

TEST(GenOptionsShape, ObjectAndOpCountsFollowOptions) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    gen::GenOptions Opt = gen::GenOptions::smallDifferential(Seed);
    std::unique_ptr<Program> P = gen::generateProgram(Opt);
    ASSERT_NE(P, nullptr) << gen::reproCommand(Opt);
    EXPECT_GE(P->getNumObjects(), Opt.MinObjects);
    EXPECT_LE(P->getNumObjects(), Opt.MaxObjects);
    // The generator stops at the first statement boundary past the
    // target; a statement is at most a few dozen ops.
    EXPECT_GE(P->getNumOps(), Opt.TargetOps * 3 / 4);
    EXPECT_LE(P->getNumOps(), Opt.TargetOps + 200);
    for (const DataObject &Obj : P->objects())
      if (Obj.isGlobal()) {
        EXPECT_GE(Obj.getNumElements(), Opt.MinElems);
        // Element counts are rounded up to the next power of two.
        EXPECT_LE(Obj.getNumElements(), 2 * Opt.MaxElems);
      }
  }
}

TEST(GenSpec, ParsesAndRejects) {
  gen::GenOptions Opt;
  ASSERT_TRUE(gen::parseGenSpec("gen:42", Opt));
  EXPECT_EQ(Opt.Seed, 42u);
  EXPECT_EQ(Opt.TargetOps, gen::GenOptions().TargetOps);
  ASSERT_TRUE(gen::parseGenSpec("gen:7:350", Opt));
  EXPECT_EQ(Opt.Seed, 7u);
  EXPECT_EQ(Opt.TargetOps, 350u);
  EXPECT_FALSE(gen::parseGenSpec("gen:", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:x", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:1:", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:1:0", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:1:2x", Opt));
  EXPECT_FALSE(gen::parseGenSpec("fir", Opt));
  // Each number is parsed whole or not at all: no spelling saturates onto
  // the largest seed.
  ASSERT_TRUE(gen::parseGenSpec("gen:18446744073709551615:2000000", Opt));
  EXPECT_EQ(Opt.Seed, 18446744073709551615u);
  EXPECT_EQ(Opt.TargetOps, 2000000u);
  EXPECT_FALSE(gen::parseGenSpec("gen:18446744073709551616", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:99999999999999999999999", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:1:2000001", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:1:18446744073709551617", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:+1", Opt));
  EXPECT_FALSE(gen::parseGenSpec("gen:-1", Opt));
}

TEST(GenSpec, ReproCommandMentionsSeedAndOps) {
  gen::GenOptions Opt = gen::GenOptions::smallDifferential(9);
  std::string Cmd = gen::reproCommand(Opt);
  EXPECT_NE(Cmd.find("gdptool gen"), std::string::npos);
  EXPECT_NE(Cmd.find("--seed=9"), std::string::npos);
  EXPECT_NE(Cmd.find("--ops=200"), std::string::npos);
  // Defaults are omitted: a default-constructed options repro is minimal.
  EXPECT_EQ(gen::reproCommand(gen::GenOptions()),
            "gdptool gen --seed=1 --ops=200");
}

/// Every generated program in the sweep must verify, get complete
/// points-to access sets, and profile cleanly (terminate, never fault).
TEST(GenValidity, SweepVerifiesAnnotatesAndProfiles) {
  unsigned N = gentest::seedCount(25);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    gen::GenOptions Opt = gen::GenOptions::property(Seed);
    SCOPED_TRACE(gen::reproCommand(Opt));
    bool Before = ::testing::Test::HasFailure();
    std::unique_ptr<Program> P = gen::generateProgram(Opt);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(annotateMemoryAccesses(*P), 0u)
        << "a generated load/store has an empty points-to access set";
    PreparedProgram PP = prepareProgram(*P);
    EXPECT_TRUE(PP.Ok) << PP.Error;
    if (!Before && ::testing::Test::HasFailure())
      gentest::dumpFailingSeed(Opt, P.get(), "validity sweep");
  }
}

} // namespace
