// The checker's one `--repro` grammar (DESIGN.md §6.7): to_repro and
// parse_repro round-trip every flavour, queue count and volume list, reject
// every malformed spelling, and the spec a failing sweep prints replays
// exactly the violation it reported — for every flavour and for a node,
// whose spec now names its volumes.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "chk/crash_check.h"

namespace bio {
namespace {

using chk::CrashSweepResult;
using chk::Flavour;
using chk::Repro;
using chk::SweepSpec;
using core::StackKind;

// ---- 1. the grammar ----------------------------------------------------------

TEST(ReproGrammarTest, RoundTripsEveryFlavourQueueCountAndVolumeList) {
  const std::vector<std::vector<StackKind>> volume_lists = {
      {StackKind::kBfsOD}, {StackKind::kBfsDR, StackKind::kExt4OD}};
  for (Flavour f :
       {Flavour::kSingle, Flavour::kFault, Flavour::kConc, Flavour::kRing})
    for (std::uint32_t q : {1u, 4u})
      for (const std::vector<StackKind>& vols : volume_lists) {
        const Repro r{{.flavour = f, .volumes = vols, .nr_queues = q}, 17, 123};
        const std::string text = chk::to_repro(r);
        const std::optional<Repro> back = chk::parse_repro(text);
        ASSERT_TRUE(back.has_value()) << text;
        EXPECT_EQ(*back, r) << text;
        EXPECT_EQ(chk::to_repro(*back), text);
      }
  // The exact spellings sweeps print.
  EXPECT_EQ(chk::to_repro({{.volumes = {StackKind::kExt4DR}}, 1, 8}),
            "EXT4-DR:1:8");
  EXPECT_EQ(chk::to_repro({{.flavour = Flavour::kConc,
                            .volumes = {StackKind::kBfsDR},
                            .nr_queues = 4},
                           1,
                           5}),
            "conc:BFS-DR:q4:1:5");
  EXPECT_EQ(chk::to_repro({{.flavour = Flavour::kFault,
                            .volumes = {StackKind::kBfsDR, StackKind::kOptFs}},
                           3,
                           0}),
            "fault:BFS-DR,OptFS:3:0");
  // An explicit q1 is the single-queue default.
  const std::optional<Repro> q1 = chk::parse_repro("ring:OptFS:q1:2:3");
  ASSERT_TRUE(q1.has_value());
  EXPECT_EQ(q1->spec.nr_queues, 1u);
  EXPECT_TRUE(chk::parse_repro("BFS-DR:1:1000000").has_value());
}

TEST(ReproGrammarTest, RejectsMalformedSpecs) {
  for (const char* bad : {
           "node:1:5",                 // unknown prefix (the retired form)
           "foo:EXT4-DR:1:5",          // unknown prefix
           "EXT4-XX:1:5",              // unknown stack
           "conc:BFS-DR,ext4-dr:1:5",  // unknown stack inside a list
           "BFS-DR:q0:1:5",            // a block layer needs a queue
           "BFS-DR:qx:1:5",            // non-numeric queue count
           "BFS-DR:q65:1:5",           // queue count out of range
           "BFS-DR:q:1:5",             // empty queue count
           "BFS-DR::5",                // empty base
           "BFS-DR:1:",                // empty point
           ":1:5",                     // empty stack
           "BFS-DR,:1:5",              // empty list entry
           "BFS-DR:+1:5",              // sign
           "BFS-DR:1:-5",              // sign
           "BFS-DR:1:5x",              // trailing junk
           "BFS-DR: 1:5",              // whitespace
           "",                         // arity
           "BFS-DR",                   // arity
           "BFS-DR:1",                 // arity
           "conc:BFS-DR:1:5:6",        // arity (a stray field is no q<N>)
           "conc:BFS-DR:q4:1:5:6",     // arity
           "BFS-DR:1:1000001",         // point out of range
       })
    EXPECT_FALSE(chk::parse_repro(bad).has_value()) << "'" << bad << "'";
}

// ---- 2. a failure's printed spec replays it ----------------------------------

struct ReplayCase {
  const char* name;
  SweepSpec spec;
  /// Enough points to reach the sweep's first EXT4-OD failure.
  int points;
};

class FirstFailureReplayTest : public testing::TestWithParam<ReplayCase> {};

TEST_P(FirstFailureReplayTest, PrintedReproReplaysTheFirstViolation) {
  const ReplayCase& c = GetParam();
  const CrashSweepResult r = chk::run_sweep(c.spec, c.points);
  // Only the nobarrier volumes break; every other volume stays clean.
  ASSERT_EQ(r.volumes.size(), c.spec.volumes.size());
  for (std::size_t v = 0; v < r.volumes.size(); ++v) {
    if (c.spec.volumes[v] == StackKind::kExt4OD)
      EXPECT_GT(r.volumes[v].failed_points, 0) << "volume " << v;
    else
      EXPECT_EQ(r.volumes[v].failed_points, 0) << "volume " << v;
  }
  ASSERT_FALSE(r.failures.empty());
  ASSERT_FALSE(r.sample_violations.empty());
  const CrashSweepResult::Failure& f = r.failures.front();
  EXPECT_EQ(f.seed, 1 + static_cast<std::uint64_t>(f.point));
  EXPECT_EQ(f.crash_at, chk::sweep_crash_at(1, f.point));

  // The sample line ends "(replay: --repro <spec>)".
  const std::string& sample = r.sample_violations.front();
  const std::size_t at = sample.rfind("--repro ");
  ASSERT_NE(at, std::string::npos) << sample;
  const std::string text = sample.substr(at + 8, sample.size() - at - 9);
  const std::optional<Repro> repro = chk::parse_repro(text);
  ASSERT_TRUE(repro.has_value()) << text;
  EXPECT_EQ(repro->spec, c.spec) << text;
  EXPECT_EQ(repro->point, f.point);

  const std::vector<chk::CrashCheckResult> replay = chk::run_check(
      repro->spec, repro->base_seed + static_cast<std::uint64_t>(repro->point),
      chk::sweep_crash_at(repro->base_seed, repro->point));
  ASSERT_LT(f.volume, replay.size());
  ASSERT_FALSE(replay[f.volume].ok()) << "failed point did not replay";
  EXPECT_EQ(replay[f.volume].violations.front(), f.first_violation);
}

INSTANTIATE_TEST_SUITE_P(
    Ext4Od, FirstFailureReplayTest,
    testing::Values(
        ReplayCase{"Single", {.volumes = {StackKind::kExt4OD}}, 10},
        ReplayCase{"Fault",
                   {.flavour = Flavour::kFault,
                    .volumes = {StackKind::kExt4OD}},
                   50},
        ReplayCase{"Conc",
                   {.flavour = Flavour::kConc,
                    .volumes = {StackKind::kExt4OD}},
                   7},
        ReplayCase{"Ring",
                   {.flavour = Flavour::kRing,
                    .volumes = {StackKind::kExt4OD}},
                   4},
        // The node spec names both volumes: replaying it against any other
        // pair would run a different case.
        ReplayCase{"Node",
                   {.volumes = {StackKind::kBfsDR, StackKind::kExt4OD}},
                   40}),
    [](const testing::TestParamInfo<ReplayCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace bio
