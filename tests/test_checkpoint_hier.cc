/**
 * @file
 * Checkpoint/resume parity on the flagship configuration: MSI/MSI
 * non-stalling, 2 cache-H + 2 cache-L, symmetry reduction on. A run
 * killed halfway and resumed on 2 workers must reproduce
 * the uninterrupted verdict, canonical state count and Section V-E
 * census. This is the paper's headline verification target
 * (~2M canonical states), so the sweep lives in the slow tier; the
 * fast-tier kill-point × thread-count matrix runs on the small flat
 * configuration in test_checkpoint.cc.
 */

#include <gtest/gtest.h>

#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "verif/checker.hh"
#include "verif/checkpoint.hh"

namespace hieragen
{
namespace
{

HierProtocol
flagship()
{
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::NonStalling;
    return core::generate(l, h, gopts);
}

size_t
reachedTransitions(const HierProtocol &p)
{
    size_t n = 0;
    for (const Machine *m : p.machines())
        n += m->numReachedTransitions();
    return n;
}

TEST(FlagshipCheckpoint, KillHalfwayResumeParallel)
{
    verif::CheckOptions o;
    o.accessBudget = 2;
    o.traceOnError = false;  // keep the 2M-state run lean
    o.numThreads = 1;

    HierProtocol clean = flagship();
    auto ref = verif::checkHier(clean, 2, 2, o);
    ASSERT_TRUE(ref.ok) << ref.summary();
    size_t refCensus = reachedTransitions(clean);

    std::string path = testing::TempDir() + "flagship.ckpt";
    HierProtocol killed = flagship();
    verif::CheckOptions ko = o;
    ko.maxStates = ref.statesExplored / 2;
    ko.checkpointPath = path;
    auto kr = verif::checkHier(killed, 2, 2, ko);
    ASSERT_FALSE(kr.ok);
    ASSERT_EQ(kr.errorKind, hieragen::ErrorKind::StateLimit);
    ASSERT_GE(kr.checkpointsWritten, 1u);

    verif::CheckpointData data;
    auto io = verif::CheckpointReader().read(path, data);
    ASSERT_TRUE(io.ok) << io.error;

    HierProtocol resumed = flagship();
    verif::CheckOptions ro = o;
    ro.numThreads = 2;
    ro.resume = &data;
    auto r = verif::checkHier(resumed, 2, 2, ro);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.resumedFromCheckpoint);
    EXPECT_EQ(r.statesExplored, ref.statesExplored);
    EXPECT_EQ(r.statesGenerated, ref.statesGenerated);
    EXPECT_EQ(r.transitionsFired, ref.transitionsFired);
    EXPECT_EQ(reachedTransitions(resumed), refCensus);
}

} // namespace
} // namespace hieragen
