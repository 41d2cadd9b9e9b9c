/**
 * @file
 * Partial-order-reduction soundness and parity tests.
 *
 * The contract under test: with CheckOptions::partialOrderReduction
 * on, the checker may expand a single provably-commuting message
 * delivery (an ample singleton) instead of the full successor set,
 * but every property the checker reports must be unaffected —
 * verdicts, counterexamples, deadlock detection, and the Section V-E
 * reachability census must be identical with reduction on and off,
 * and the reduced canonical state count must never exceed the full
 * one. The reduced graph must be a pure function of the state, so
 * runs at 1 and 4 workers agree state-for-state with
 * reduction on (this suite is also a ThreadSanitizer target).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "verif/checker.hh"

namespace hieragen
{
namespace
{

constexpr unsigned kParThreads = 4;

verif::CheckOptions
atomicOpts(int budget = 2)
{
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = budget;
    return o;
}

// ---------------------------------------------------------------
// Verdict/count parity: every builtin flat protocol.

class FlatPorParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FlatPorParity, SameVerdictNoMoreStates)
{
    Protocol p = protocols::builtinProtocol(GetParam());
    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;
    o.partialOrderReduction = false;
    auto off = verif::checkFlat(p, 3, o);
    o.partialOrderReduction = true;
    auto on = verif::checkFlat(p, 3, o);

    EXPECT_EQ(off.ok, on.ok) << GetParam();
    EXPECT_EQ(off.errorKind, on.errorKind) << GetParam();
    EXPECT_FALSE(off.partialOrderReduction);
    EXPECT_TRUE(on.partialOrderReduction);
    EXPECT_EQ(off.ampleExpansions, 0u);
    // Reduction prunes interleavings; it must never add states.
    EXPECT_LE(on.statesExplored, off.statesExplored) << GetParam();
    EXPECT_LE(on.statesGenerated, off.statesGenerated) << GetParam();

    // The reduced graph is a pure function of the state, so 4
    // workers agree with 1 exactly.
    o.numThreads = kParThreads;
    auto par = verif::checkFlat(p, 3, o);
    EXPECT_EQ(on.ok, par.ok) << GetParam();
    EXPECT_EQ(on.statesExplored, par.statesExplored) << GetParam();
    EXPECT_EQ(on.statesGenerated, par.statesGenerated) << GetParam();
    EXPECT_EQ(on.transitionsFired, par.transitionsFired) << GetParam();
    EXPECT_EQ(on.ampleExpansions, par.ampleExpansions) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(All, FlatPorParity,
                         ::testing::Values("MI", "MSI", "MESI", "MOSI",
                                           "MOESI", "MSI_SE"));

// ---------------------------------------------------------------
// Verdict/count parity: every builtin hierarchical combo, both
// concurrency modes. POR composes with symmetry (the default), so
// these runs exercise ample selection over canonical states.

class HierPorParity
    : public ::testing::TestWithParam<
          std::tuple<std::pair<const char *, const char *>,
                     ConcurrencyMode>>
{
};

const std::pair<const char *, const char *> kCombos[] = {
    {"MSI", "MI"},   {"MI", "MSI"},    {"MSI", "MSI"},
    {"MESI", "MSI"}, {"MESI", "MESI"}, {"MOSI", "MSI"},
    {"MOSI", "MOSI"}, {"MOESI", "MOESI"},
};

TEST_P(HierPorParity, SameVerdictNoMoreStates)
{
    auto [combo, mode] = GetParam();
    Protocol l = protocols::builtinProtocol(combo.first);
    Protocol h = protocols::builtinProtocol(combo.second);
    core::HierGenOptions gopts;
    gopts.mode = mode;
    HierProtocol p = core::generate(l, h, gopts);
    std::string what = std::string(combo.first) + "/" + combo.second +
                       " " + toString(mode);

    verif::CheckOptions o;
    o.accessBudget = 1;
    o.traceOnError = false;
    o.numThreads = 1;
    o.partialOrderReduction = false;
    auto off = verif::checkHier(p, 2, 2, o);
    o.partialOrderReduction = true;
    auto on = verif::checkHier(p, 2, 2, o);

    EXPECT_EQ(off.ok, on.ok) << what;
    EXPECT_EQ(off.errorKind, on.errorKind) << what;
    EXPECT_TRUE(on.ok) << on.summary();
    EXPECT_LE(on.statesExplored, off.statesExplored) << what;
    EXPECT_LE(on.statesGenerated, off.statesGenerated) << what;

    // Parallel engine, reduction on: exact state-count parity.
    o.numThreads = kParThreads;
    auto par = verif::checkHier(p, 2, 2, o);
    EXPECT_EQ(on.ok, par.ok) << what;
    EXPECT_EQ(on.statesExplored, par.statesExplored) << what;
    EXPECT_EQ(on.statesGenerated, par.statesGenerated) << what;
    EXPECT_EQ(on.transitionsFired, par.transitionsFired) << what;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, HierPorParity,
    ::testing::Combine(::testing::ValuesIn(kCombos),
                       ::testing::Values(ConcurrencyMode::Stalling,
                                         ConcurrencyMode::NonStalling)));

// ---------------------------------------------------------------
// Buggy protocols: the counterexample must survive reduction.

TEST(PorBugs, MutatedMsiStillProducesTrace)
{
    // Same sabotage as CheckerDetectsBugs: S ignores Inv, leaving a
    // reader alive next to a writer. The ample proviso only fires on
    // deliveries invisible to the safety properties, so the violation
    // must still be reached and a trace reconstructed.
    Protocol p = protocols::builtinProtocol("MSI");
    MsgTypeId inv = p.msgs.find("Inv", Level::Lower);
    StateId s = p.cache.findState("S");
    auto *alts = p.cache.transitionsForMutable(s, EventKey::mkMsg(inv));
    ASSERT_NE(alts, nullptr);
    alts->front().next = s;
    auto &ops = alts->front().ops;
    ops.erase(std::remove_if(ops.begin(), ops.end(),
                             [](const Op &op) {
                                 return op.code ==
                                        OpCode::InvalidateLine;
                             }),
              ops.end());

    for (unsigned threads : {1u, kParThreads}) {
        verif::CheckOptions o = atomicOpts();
        o.numThreads = threads;
        o.partialOrderReduction = true;
        auto r = verif::checkFlat(p, 3, o);
        EXPECT_FALSE(r.ok) << threads;
        EXPECT_TRUE(r.errorKind == hieragen::ErrorKind::Swmr ||
                    r.errorKind == hieragen::ErrorKind::DataValue)
            << r.summary();
        EXPECT_FALSE(r.trace.empty()) << threads;
    }
}

TEST(PorBugs, DeadlockStillCaught)
{
    // A directory that drops GetM on the floor wedges the requester.
    // The ample step must preserve every deadlock: a state is only
    // reported stuck after all (reduced) successors are exhausted,
    // and the proviso never selects an ample step out of a state
    // whose full successor set is empty.
    Protocol p = protocols::builtinProtocol("MI");
    MsgTypeId getm = p.msgs.find("GetM", Level::Lower);
    StateId i = p.directory.findState("I");
    auto *alts =
        p.directory.transitionsForMutable(i, EventKey::mkMsg(getm));
    ASSERT_NE(alts, nullptr);
    alts->front().ops.clear();

    for (unsigned threads : {1u, kParThreads}) {
        verif::CheckOptions o = atomicOpts();
        o.numThreads = threads;
        o.partialOrderReduction = true;
        auto r = verif::checkFlat(p, 3, o);
        EXPECT_FALSE(r.ok) << threads;
        EXPECT_EQ(r.errorKind, hieragen::ErrorKind::Deadlock) << r.summary();
    }
}

// ---------------------------------------------------------------
// Census parity: pruning must keep the same state/event pairs even
// though POR skips interleavings (marks fire inside the probe, so
// pruned siblings still count as reached).

TEST(PorCensus, FlatCensusPrunesIdentically)
{
    Protocol offP = protocols::builtinProtocol("MSI");
    Protocol onP = protocols::builtinProtocol("MSI");

    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;
    o.partialOrderReduction = false;
    verif::System offSys = verif::buildFlatSystem(offP, 3);
    auto roff = verif::pruneUnreachable(
        offSys, o, {&offP.cache, &offP.directory});

    o.partialOrderReduction = true;
    verif::System onSys = verif::buildFlatSystem(onP, 3);
    auto ron = verif::pruneUnreachable(
        onSys, o, {&onP.cache, &onP.directory});

    ASSERT_TRUE(roff.ok);
    ASSERT_TRUE(ron.ok);
    EXPECT_EQ(offP.cache.numReachedTransitions(),
              onP.cache.numReachedTransitions());
    EXPECT_EQ(offP.directory.numReachedTransitions(),
              onP.directory.numReachedTransitions());
    EXPECT_EQ(offP.cache.numReachedStates(),
              onP.cache.numReachedStates());
    EXPECT_EQ(offP.directory.numReachedStates(),
              onP.directory.numReachedStates());
}

TEST(PorCensus, HierCensusPrunesIdentically)
{
    auto runCensus = [](bool por, size_t out[4]) {
        Protocol l = protocols::builtinProtocol("MSI");
        Protocol h = protocols::builtinProtocol("MSI");
        core::HierGenOptions gopts;
        gopts.mode = ConcurrencyMode::NonStalling;
        HierProtocol p = core::generate(l, h, gopts);
        verif::System sys = verif::buildHierSystem(p, 2, 2);
        verif::CheckOptions o;
        o.accessBudget = 1;
        o.traceOnError = false;
        o.numThreads = 1;
        o.partialOrderReduction = por;
        auto r = verif::pruneUnreachable(
            sys, o, {&p.cacheL, &p.dirCache, &p.cacheH, &p.root});
        ASSERT_TRUE(r.ok) << r.summary();
        out[0] = p.cacheL.numReachedTransitions();
        out[1] = p.dirCache.numReachedTransitions();
        out[2] = p.cacheH.numReachedTransitions();
        out[3] = p.root.numReachedTransitions();
    };
    size_t off[4], on[4];
    runCensus(false, off);
    runCensus(true, on);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(off[i], on[i]) << "machine " << i;
}

// ---------------------------------------------------------------
// Mechanics.

TEST(PorMechanics, SummaryAndResultReportMode)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;

    o.partialOrderReduction = true;
    auto on = verif::checkFlat(p, 3, o);
    EXPECT_TRUE(on.partialOrderReduction);

    o.partialOrderReduction = false;
    auto off = verif::checkFlat(p, 3, o);
    EXPECT_FALSE(off.partialOrderReduction);
    EXPECT_EQ(off.ampleExpansions, 0u);
}

TEST(PorMechanics, ComposesWithSymmetryOffAndCompaction)
{
    // POR with symmetry disabled and with hash-compacted storage:
    // same verdict, count never above the matching POR-off run.
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MI");
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::Stalling;
    HierProtocol p = core::generate(l, h, gopts);

    verif::CheckOptions o;
    o.accessBudget = 1;
    o.traceOnError = false;
    o.numThreads = 1;
    o.symmetryReduction = false;
    o.partialOrderReduction = false;
    auto off = verif::checkHier(p, 2, 2, o);
    o.partialOrderReduction = true;
    auto on = verif::checkHier(p, 2, 2, o);
    EXPECT_EQ(off.ok, on.ok);
    EXPECT_LE(on.statesExplored, off.statesExplored);

    o.hashCompaction = true;
    auto compact = verif::checkHier(p, 2, 2, o);
    EXPECT_EQ(on.ok, compact.ok);
    EXPECT_EQ(on.statesExplored, compact.statesExplored);
}

} // namespace
} // namespace hieragen
