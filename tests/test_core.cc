/**
 * @file
 * Unit and property tests for the MEMCON core: the cost-benefit
 * model (appendix numbers, MinWriteInterval), the PRIL predictor
 * (Figure 13 workflow, checked against a brute-force reference
 * model), refresh-policy baselines, and the online engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/random.hh"
#include "core/cost_model.hh"
#include "core/engine.hh"
#include "core/policies.hh"
#include "core/pril.hh"

namespace memcon::core
{
namespace
{

TEST(CostModel, AppendixLatencies)
{
    CostModel cm;
    EXPECT_DOUBLE_EQ(cm.testCostNs(TestMode::ReadAndCompare), 1068.0);
    EXPECT_DOUBLE_EQ(cm.testCostNs(TestMode::CopyAndCompare), 1602.0);
    EXPECT_DOUBLE_EQ(cm.refreshOpNs(), 39.0);
}

TEST(CostModel, MinWriteIntervalsMatchPaper)
{
    CostModel cm; // HI 16 ms, LO 64 ms
    EXPECT_DOUBLE_EQ(cm.minWriteIntervalMs(TestMode::ReadAndCompare)
                         .value(),
                     560.0);
    EXPECT_DOUBLE_EQ(cm.minWriteIntervalMs(TestMode::CopyAndCompare)
                         .value(),
                     864.0);
}

/** Section 3.3: 480/448 ms at 128/256 ms LO-REF (Read&Compare). */
class MinWriteIntervalByLoRef
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(MinWriteIntervalByLoRef, MatchesPaper)
{
    auto [lo_ms, expected] = GetParam();
    CostModelConfig cfg;
    cfg.loRefMs = lo_ms;
    CostModel cm(cfg);
    EXPECT_DOUBLE_EQ(cm.minWriteIntervalMs(TestMode::ReadAndCompare)
                         .value(),
                     expected);
}

INSTANTIATE_TEST_SUITE_P(LoRefIntervals, MinWriteIntervalByLoRef,
                         ::testing::Values(std::pair{64.0, 560.0},
                                           std::pair{128.0, 480.0},
                                           std::pair{256.0, 448.0}));

TEST(CostModel, AccumulatedCostsCrossExactlyAtMinWriteInterval)
{
    CostModel cm;
    for (TestMode mode :
         {TestMode::ReadAndCompare, TestMode::CopyAndCompare}) {
        TimeMs mwi = cm.minWriteIntervalMs(mode);
        EXPECT_GE(cm.hiRefAccumulatedNs(mwi),
                  cm.memconAccumulatedNs(mode, mwi));
        EXPECT_LT(cm.hiRefAccumulatedNs(mwi - TimeMs{16.0}),
                  cm.memconAccumulatedNs(mode, mwi - TimeMs{16.0}));
    }
}

TEST(CostModel, CurveIsMonotoneAndStartsWithTestCost)
{
    CostModel cm;
    auto curve = cm.curve(TimeMs{2000.0});
    ASSERT_FALSE(curve.empty());
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].hiRefNs, curve[i - 1].hiRefNs);
        EXPECT_GE(curve[i].readCompareNs, curve[i - 1].readCompareNs);
        EXPECT_GE(curve[i].copyCompareNs, curve[i - 1].copyCompareNs);
    }
    EXPECT_GE(curve[0].readCompareNs, 1068.0);
    EXPECT_GE(curve[0].copyCompareNs, 1602.0);
}

TEST(CostModel, AverageCostTradeoff)
{
    // Figure 5: frequent testing costs more than HI-REF; infrequent
    // testing costs less.
    CostModel cm;
    double hi_avg = cm.hiRefAverageNsPerMs();
    EXPECT_GT(cm.averageCostNsPerMs(TestMode::ReadAndCompare, TimeMs{100.0}),
              hi_avg);
    EXPECT_LT(cm.averageCostNsPerMs(TestMode::ReadAndCompare, TimeMs{5000.0}),
              hi_avg);
}

TEST(CostModel, InvalidConfigIsFatal)
{
    CostModelConfig bad;
    bad.loRefMs = 8.0; // below HI-REF
    EXPECT_EXIT(CostModel cm(bad), ::testing::ExitedWithCode(1),
                "LO-REF interval must exceed");
}

TEST(CostModel, ModeNames)
{
    EXPECT_EQ(toString(TestMode::ReadAndCompare), "Read&Compare");
    EXPECT_EQ(toString(TestMode::CopyAndCompare), "Copy&Compare");
}

// --------------------------------------------------------------------
// PRIL
// --------------------------------------------------------------------

TEST(Pril, SingleWriteBecomesCandidateAfterTwoQuanta)
{
    PrilPredictor pril(64, 16);
    pril.onWrite(PageId{5});
    // End of the write's quantum: page 5 moves to "previous".
    EXPECT_TRUE(pril.endQuantum().empty());
    // It stayed idle for the next quantum: now a candidate.
    auto cands = pril.endQuantum();
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0], PageId{5});
    // Not re-reported afterwards.
    EXPECT_TRUE(pril.endQuantum().empty());
}

TEST(Pril, SecondWriteSameQuantumDisqualifies)
{
    PrilPredictor pril(64, 16);
    pril.onWrite(PageId{5});
    pril.onWrite(PageId{5}); // interval < quantum (Figure 13 step 2)
    EXPECT_TRUE(pril.endQuantum().empty());
    EXPECT_TRUE(pril.endQuantum().empty());
}

TEST(Pril, WriteInNextQuantumDisqualifies)
{
    PrilPredictor pril(64, 16);
    pril.onWrite(PageId{5});
    EXPECT_TRUE(pril.endQuantum().empty());
    pril.onWrite(PageId{5}); // evicts from the previous buffer (step 3)
    EXPECT_TRUE(pril.endQuantum().empty());
    // ... but that second write itself becomes a candidate a
    // quantum later.
    auto cands = pril.endQuantum();
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0], PageId{5});
}

TEST(Pril, MultiplePagesSortedCandidates)
{
    PrilPredictor pril(64, 16);
    pril.onWrite(PageId{9});
    pril.onWrite(PageId{3});
    pril.onWrite(PageId{7});
    pril.endQuantum();
    auto cands = pril.endQuantum();
    EXPECT_EQ(cands,
              (std::vector<PageId>{PageId{3}, PageId{7}, PageId{9}}));
}

TEST(Pril, BufferCapacityDropsExcessPages)
{
    PrilPredictor pril(100, 4);
    for (std::uint64_t p = 0; p < 10; ++p)
        pril.onWrite(PageId{p});
    EXPECT_EQ(pril.bufferDrops(), 6u);
    pril.endQuantum();
    EXPECT_EQ(pril.endQuantum().size(), 4u);
}

TEST(Pril, DroppedPageCanReenterLater)
{
    PrilPredictor pril(100, 1);
    pril.onWrite(PageId{1});
    pril.onWrite(PageId{2}); // dropped (footnote 10)
    EXPECT_EQ(pril.bufferDrops(), 1u);
    pril.endQuantum();
    pril.endQuantum(); // page 1 reported, structures cleared
    pril.onWrite(PageId{2});   // fresh quantum: fits now
    pril.endQuantum();
    auto cands = pril.endQuantum();
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0], PageId{2});
}

TEST(Pril, TrackingQueryAndStorage)
{
    PrilPredictor pril(1000, 50);
    EXPECT_FALSE(pril.isTracked(PageId{3}));
    pril.onWrite(PageId{3});
    EXPECT_TRUE(pril.isTracked(PageId{3}));
    // Two 1000-bit maps plus 2 * 50 entries * 5 bytes.
    EXPECT_EQ(pril.storageBytes(), 2 * 16 * 8 + 2 * 50 * 5u);
}

TEST(Pril, PaperStorageBudget)
{
    // Section 6.4: a 1M-page (8 GB / 8 KB) module with 4000-entry
    // buffers costs ~2x128 KB of maps + ~2x20 KB of buffer.
    PrilPredictor pril(1u << 20, 4000);
    double kb = pril.storageBytes() / 1024.0;
    EXPECT_NEAR(kb, 2 * 128.0 + 2 * 19.5, 8.0);
}

TEST(Pril, OutOfRangePagePanics)
{
    PrilPredictor pril(10, 4);
    EXPECT_DEATH(pril.onWrite(PageId{10}), "out of range");
}

/**
 * Property: PRIL candidates match a brute-force reference that
 * replays the same write sequence with per-quantum count maps:
 * candidates at quantum end q are pages with exactly one write in
 * quantum q-1 and none in quantum q (unbounded buffer).
 */
class PrilReference : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PrilReference, MatchesBruteForce)
{
    Rng rng(GetParam());
    const std::uint64_t pages = 40;
    PrilPredictor pril(pages, 10000); // effectively unbounded

    std::map<std::uint64_t, unsigned> prev_counts, cur_counts;
    for (int quantum = 0; quantum < 50; ++quantum) {
        unsigned writes = rng.uniformInt(30);
        for (unsigned w = 0; w < writes; ++w) {
            std::uint64_t page = rng.uniformInt(pages);
            pril.onWrite(PageId{page});
            ++cur_counts[page];
        }
        std::vector<PageId> expected;
        for (const auto &[page, count] : prev_counts)
            if (count == 1 && !cur_counts.count(page))
                expected.push_back(PageId{page});
        ASSERT_EQ(pril.endQuantum(), expected) << "quantum " << quantum;
        prev_counts = std::move(cur_counts);
        cur_counts.clear();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrilReference,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

// --------------------------------------------------------------------
// Refresh policies
// --------------------------------------------------------------------

TEST(Policies, FixedIntervals)
{
    EXPECT_DOUBLE_EQ(fixedRefreshPolicy(16.0, 16.0).reduction, 0.0);
    EXPECT_DOUBLE_EQ(fixedRefreshPolicy(32.0, 16.0).reduction, 0.5);
    EXPECT_DOUBLE_EQ(fixedRefreshPolicy(64.0, 16.0).reduction, 0.75);
    EXPECT_EXIT(fixedRefreshPolicy(8.0, 16.0),
                ::testing::ExitedWithCode(1), "below the baseline");
}

TEST(Policies, RaidrSixteenPercent)
{
    // Section 6.3's RAIDR configuration: 16% of rows at 16 ms, the
    // rest at 64 ms -> 63% fewer refreshes than the 16 ms baseline.
    RefreshPolicy p = raidrPolicy(0.16, 16.0, 64.0, 16.0);
    EXPECT_NEAR(p.reduction, 0.63, 1e-12);
    // Degenerate ends.
    EXPECT_NEAR(raidrPolicy(1.0, 16.0, 64.0, 16.0).reduction, 0.0, 1e-12);
    EXPECT_NEAR(raidrPolicy(0.0, 16.0, 64.0, 16.0).reduction, 0.75,
                1e-12);
}

TEST(Policies, MemconWrapsMeasuredReduction)
{
    EXPECT_DOUBLE_EQ(memconPolicy(0.68).reduction, 0.68);
    EXPECT_EQ(memconPolicy(0.68).name, "MEMCON");
    EXPECT_EXIT(memconPolicy(1.5), ::testing::ExitedWithCode(1),
                "reduction must lie");
}

// --------------------------------------------------------------------
// Engine
// --------------------------------------------------------------------

MemconConfig
testConfig()
{
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{100.0};
    cfg.writeBufferCapacity = 1000;
    cfg.testSlotsPer64ms = 1024;
    return cfg;
}

TEST(Engine, UpperBoundReduction)
{
    MemconEngine eng(testConfig());
    EXPECT_DOUBLE_EQ(eng.upperBoundReduction(), 0.75);
}

TEST(Engine, UnwrittenPagesApproachUpperBound)
{
    // Pages with no writes are identified as read-only at the end of
    // quantum 2 and spend the rest of the run at LO-REF.
    MemconEngine eng(testConfig());
    std::vector<std::vector<TimeMs>> writes(32);
    MemconResult r = eng.run(writes, 10000.0);
    // 200 ms of HI out of 10 s, the rest at LO:
    double expected_lo = (10000.0 - 200.0) / 10000.0;
    EXPECT_NEAR(r.loCoverage(), expected_lo, 1e-9);
    EXPECT_NEAR(r.reduction(), 0.75 * expected_lo, 0.01);
    EXPECT_EQ(r.testsRun, 32u);
    EXPECT_EQ(r.testsPassed, 32u);
}

TEST(Engine, SingleIdlePageLifecycle)
{
    // One page written once at t=50: it survives the write quantum
    // [0,100) plus the full idle quantum [100,200), so PRIL reports
    // it at t=200 and it stays at LO-REF until the horizon.
    MemconEngine eng(testConfig());
    std::vector<std::vector<TimeMs>> writes{{TimeMs{50.0}}};
    MemconResult r = eng.run(writes, 1000.0);
    EXPECT_EQ(r.testsRun, 1u);
    EXPECT_EQ(r.testsPassed, 1u);
    EXPECT_EQ(r.testsCorrect, 1u); // censored: no later write
    EXPECT_NEAR(r.loTimeMs, 800.0, 1e-9);
    EXPECT_NEAR(r.hiTimeMs, 200.0, 1e-9);
    double ops = 200.0 / 16.0 + 800.0 / 64.0;
    EXPECT_NEAR(r.refreshOpsMemcon, ops, 1e-9);
}

TEST(Engine, WriteDemotesToHiRef)
{
    MemconConfig cfg = testConfig();
    MemconEngine eng(cfg);
    // Written at 50, tested at 200, written again at 650 -> HI
    // again, candidate again at 800, LO until 2000.
    std::vector<std::vector<TimeMs>> writes{
        {TimeMs{50.0}, TimeMs{650.0}}};
    std::vector<std::tuple<std::uint64_t, double, bool>> transitions;
    MemconResult r = eng.run(
        writes, 2000.0, {},
        [&](std::uint64_t page, double t, bool to_lo, std::uint64_t) {
            transitions.emplace_back(page, t, to_lo);
        });
    ASSERT_EQ(transitions.size(), 3u);
    EXPECT_EQ(transitions[0],
              (std::tuple<std::uint64_t, double, bool>{0, 200.0, true}));
    EXPECT_EQ(transitions[1],
              (std::tuple<std::uint64_t, double, bool>{0, 650.0, false}));
    EXPECT_EQ(transitions[2],
              (std::tuple<std::uint64_t, double, bool>{0, 800.0, true}));
    EXPECT_EQ(r.testsRun, 2u);
    // First test idle span 450 ms < MinWriteInterval(560) ->
    // mispredicted; second censored-correct.
    EXPECT_EQ(r.testsMispredicted, 1u);
    EXPECT_EQ(r.testsCorrect, 1u);
}

TEST(Engine, LoDwellRoundsToTheNearestNanosecond)
{
    // Every stint boundary rounds to the nearest ns. With a
    // 100.0000003 ms quantum the page promotes at 200000000.6 ns
    // (-> 200000001), a write at 650000000.2 ns (-> 650000000) demotes
    // it, and it promotes again at 800000002.4 ns (-> 800000002) until
    // the 2000 ms horizon. Truncating any boundary changes the total.
    MemconConfig cfg = testConfig();
    cfg.quantumMs = TimeMs{100.0000003};
    cfg.capturePageEndState = true;
    std::vector<std::vector<TimeMs>> writes{
        {TimeMs{50.0}, TimeMs{650.0000002}}};
    MemconResult r = MemconEngine(cfg).run(writes, 2000.0);
    ASSERT_EQ(r.pageEnd.size(), 1u);
    const TimeNs lo{(650000000 - 200000001) + (2000000000 - 800000002)};
    EXPECT_EQ(r.pageEnd[0].loTime, lo);
    EXPECT_EQ(r.pageEnd[0].hiTime, TimeNs{2000000000} - lo);
    EXPECT_TRUE(r.pageEnd[0].atLoRef);
    EXPECT_EQ(r.pageEnd[0].writeCount, 2u);
    EXPECT_EQ(r.loTimeMs, timeNsToMs(lo).value());
}

TEST(Engine, FailingRowsStayAtHiRef)
{
    MemconEngine eng(testConfig());
    std::vector<std::vector<TimeMs>> writes{{TimeMs{50.0}},
                                            {TimeMs{50.0}}};
    // Page 0 fails with its current content; page 1 passes.
    auto oracle = [](std::uint64_t page, std::uint64_t) {
        return page == 0;
    };
    MemconResult r = eng.run(writes, 1000.0, oracle);
    EXPECT_EQ(r.testsRun, 2u);
    EXPECT_EQ(r.testsFailed, 1u);
    EXPECT_EQ(r.testsPassed, 1u);
    // Page 0 never reaches LO-REF; page 1 does from its test at 200.
    EXPECT_NEAR(r.loTimeMs, 800.0, 1e-9);
    EXPECT_NEAR(r.hiTimeMs, 1000.0 + 200.0, 1e-9);
}

TEST(Engine, TestBudgetSkipsExcessCandidates)
{
    MemconConfig cfg = testConfig();
    cfg.testSlotsPer64ms = 1; // ~1.5 tests per 100 ms quantum
    MemconEngine eng(cfg);
    std::vector<std::vector<TimeMs>> writes(
        10, std::vector<TimeMs>{TimeMs{50.0}});
    MemconResult r = eng.run(writes, 400.0);
    EXPECT_GT(r.testsSkippedBudget, 0u);
    EXPECT_LT(r.testsRun, 10u);
}

TEST(Engine, BufferDropsSurfaceInResult)
{
    MemconConfig cfg = testConfig();
    cfg.writeBufferCapacity = 2;
    MemconEngine eng(cfg);
    std::vector<std::vector<TimeMs>> writes(
        10, std::vector<TimeMs>{TimeMs{50.0}});
    MemconResult r = eng.run(writes, 400.0);
    EXPECT_EQ(r.bufferDrops, 8u);
}

TEST(Engine, ReductionConsistencyIdentity)
{
    // loTime + hiTime must equal pages * duration, and the refresh
    // op count must be the integral of the state timeline.
    MemconEngine eng(testConfig());
    Rng rng(77);
    std::vector<std::vector<TimeMs>> writes(50);
    for (auto &w : writes) {
        double t = rng.uniform(0.0, 500.0);
        while (t < 5000.0) {
            w.push_back(TimeMs{t});
            t += rng.pareto(1.0, 0.5);
        }
    }
    MemconResult r = eng.run(writes, 5000.0);
    EXPECT_NEAR(r.hiTimeMs + r.loTimeMs, 50 * 5000.0, 1e-6);
    EXPECT_NEAR(r.refreshOpsMemcon,
                r.hiTimeMs / 16.0 + r.loTimeMs / 64.0, 1e-6);
    EXPECT_NEAR(r.refreshOpsBaseline, 50 * 5000.0 / 16.0, 1e-6);
    EXPECT_EQ(r.testsRun, r.testsPassed + r.testsFailed);
    EXPECT_EQ(r.testsRun, r.testsCorrect + r.testsMispredicted);
    EXPECT_GT(r.reduction(), 0.0);
    EXPECT_LT(r.reduction(), eng.upperBoundReduction() + 1e-9);
}

/**
 * The Section 8 reliability invariant, observed from outside: a page
 * is only ever at LO-REF after passing a test against its current
 * content, and any write instantly demotes it. We reconstruct the
 * state from the transition stream and check it against the write
 * timeline and a content-dependent oracle.
 */
class EngineInvariant : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineInvariant, LoRefAlwaysTestedContent)
{
    Rng rng(GetParam());
    const std::size_t pages = 30;
    std::vector<std::vector<TimeMs>> writes(pages);
    for (auto &w : writes) {
        double t = rng.uniform(0.0, 300.0);
        while (t < 4000.0) {
            w.push_back(TimeMs{t});
            t += rng.pareto(2.0, 0.45);
        }
    }

    // Content is a function of (page, write count); failure flips
    // with a hash so retests of changed content can fail.
    auto oracle = [](std::uint64_t page, std::uint64_t wc) {
        return hashMix64(page * 131 + wc * 7) % 5 == 0;
    };

    struct Transition
    {
        double time;
        bool toLo;
        std::uint64_t writeCount;
    };
    std::vector<std::vector<Transition>> log(pages);

    MemconEngine eng(testConfig());
    eng.run(writes, 4000.0, oracle,
            [&](std::uint64_t page, double t, bool to_lo,
                std::uint64_t wc) {
                log[page].push_back({t, to_lo, wc});
            });

    for (std::size_t p = 0; p < pages; ++p) {
        bool at_lo = false;
        std::size_t wi = 0;
        for (const Transition &tr : log[p]) {
            if (tr.toLo) {
                ASSERT_FALSE(at_lo);
                // Passing test implies the oracle approved the
                // content as of this write count...
                ASSERT_FALSE(oracle(p, tr.writeCount));
                // ...and that write count is consistent with the
                // writes that happened up to this time.
                while (wi < writes[p].size() &&
                       writes[p][wi].value() < tr.time)
                    ++wi;
                ASSERT_EQ(tr.writeCount, wi);
            } else {
                ASSERT_TRUE(at_lo);
                // Demotion happens exactly at a write.
                ASSERT_LT(wi, writes[p].size());
                ASSERT_DOUBLE_EQ(writes[p][wi].value(), tr.time);
            }
            at_lo = tr.toLo;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariant,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Engine, QuantumSweepKeepsReductionStable)
{
    // Figure 14: the reduction barely moves across CIL 512-2048 ms.
    std::vector<double> reductions;
    for (double q : {512.0, 1024.0, 2048.0}) {
        MemconConfig cfg;
        cfg.quantumMs = TimeMs{q};
        MemconEngine eng(cfg);
        // AllSysMark's long trace keeps quantum-scale delays small
        // relative to its minute-scale idle gaps, as in the paper.
        trace::AppPersona p = trace::AppPersona::byName("AllSysMark");
        reductions.push_back(eng.runOnApp(p).reduction());
    }
    for (double r : reductions) {
        EXPECT_GT(r, 0.55);
        EXPECT_LT(r, 0.75);
    }
    EXPECT_LT(std::abs(reductions[0] - reductions[2]), 0.10);
}

TEST(Engine, CopyModeCostsMoreTestTime)
{
    MemconConfig rc = testConfig();
    MemconConfig cc = testConfig();
    cc.mode = TestMode::CopyAndCompare;
    std::vector<std::vector<TimeMs>> writes{{TimeMs{50.0}}};
    MemconResult r1 = MemconEngine(rc).run(writes, 1000.0);
    MemconResult r2 = MemconEngine(cc).run(writes, 1000.0);
    EXPECT_DOUBLE_EQ(r1.testTimeNs, 1068.0);
    EXPECT_DOUBLE_EQ(r2.testTimeNs, 1602.0);
}

TEST(Engine, InvalidConfigsAreFatal)
{
    MemconConfig bad = testConfig();
    bad.loRefMs = 10.0;
    EXPECT_EXIT(MemconEngine eng(bad), ::testing::ExitedWithCode(1),
                "hiRefMs");
    MemconConfig bad2 = testConfig();
    bad2.quantumMs = TimeMs{};
    EXPECT_EXIT(MemconEngine eng(bad2), ::testing::ExitedWithCode(1),
                "quantum");
}

} // namespace
} // namespace memcon::core
