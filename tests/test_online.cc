/**
 * @file
 * Tests for the closed-loop, cycle-domain MEMCON integration:
 * PRIL fed by real controller write traffic, test traffic injection,
 * slot-limited testing, abort-on-write, and the emergent refresh
 * reduction re-targeting the controller. The ControllerPort suites
 * pin the exact traffic OnlineMemcon sends through a recording fake
 * controller.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/controller_port.hh"
#include "core/online_memcon.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"

namespace memcon::core
{
namespace
{

/** A hand-driven rig: controller + OnlineMemcon, no cores. */
struct Rig
{
    explicit Rig(OnlineMemconConfig cfg = smallConfig(),
                 OnlineMemcon::RowFailureOracle oracle = {},
                 dram::Geometry geometry = smallGeom())
        : geom(geometry),
          timing(dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0}))
    {
        sim::ControllerConfig mc_cfg;
        OnlineMemcon::installObserver(mc_cfg, memconSlot);
        mc = std::make_unique<sim::MemoryController>(geom, timing,
                                                     mc_cfg);
        memcon = std::make_unique<OnlineMemcon>(geom, *mc, cfg,
                                                std::move(oracle));
        memconSlot = memcon.get();
    }

    static dram::Geometry
    smallGeom()
    {
        dram::Geometry g;
        g.channels = 1;
        g.ranks = 1;
        g.banks = 8;
        g.rowsPerBank = 256; // 2048 rows
        return g;
    }

    static OnlineMemconConfig
    smallConfig()
    {
        OnlineMemconConfig cfg;
        cfg.quantum = usToTicks(50.0);
        cfg.testIdle = usToTicks(20.0);
        cfg.retargetPeriod = usToTicks(25.0);
        cfg.testEngine.slots = 8;
        cfg.testEngine.wordsPerRow = 16; // keep captures small
        return cfg;
    }

    /** Advance the rig by the given number of DRAM cycles. */
    void
    spin(unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            now += timing.tCk;
            mc->tick(now);
            memcon->tick(now);
        }
    }

    /** Issue one demand write to a row (column 0). */
    void
    writeRow(std::uint64_t row)
    {
        dram::Coordinates c = geom.rowFromFlatIndex(RowId{row});
        sim::Request req;
        req.type = sim::Request::Type::Write;
        req.addr = geom.compose(c);
        while (!mc->enqueue(std::move(req), now))
            spin(1);
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    OnlineMemcon *memconSlot = nullptr;
    std::unique_ptr<sim::MemoryController> mc;
    std::unique_ptr<OnlineMemcon> memcon;
    Tick now{};
};

TEST(OnlineMemcon, WrittenRowBecomesTestedAndGoesLoRef)
{
    Rig rig;
    rig.writeRow(5);
    // Two quanta (50 us each) plus the test idle and traffic time.
    rig.spin(200000); // 250 us of DRAM cycles
    EXPECT_GE(rig.memcon->testsStarted(), 1u);
    EXPECT_GE(rig.memcon->testsPassed(), 1u);
    EXPECT_GT(rig.memcon->loRefFraction(), 0.0);
    EXPECT_EQ(rig.memcon->writesObserved(), 1u);
}

TEST(OnlineMemcon, WriteDuringTestAborts)
{
    Rig rig;
    rig.writeRow(5);
    // Let the candidate enter testing (two quantum ends = 100 us,
    // idle 20 us) but write again before completion.
    rig.spin(85000); // ~106 us: test started, not yet complete
    if (rig.memcon->testsStarted() > 0 &&
        rig.memcon->testsPassed() == 0) {
        rig.writeRow(5);
        rig.spin(2000);
        EXPECT_GE(rig.memcon->testsAborted(), 1u);
    } else {
        GTEST_SKIP() << "test completed before the abort window";
    }
}

TEST(OnlineMemcon, FailingRowNeverReachesLoRef)
{
    auto oracle = [](RowId row) { return row == RowId{5}; };
    Rig rig(Rig::smallConfig(), oracle);
    rig.writeRow(5);
    rig.writeRow(9);
    rig.spin(300000);
    EXPECT_GE(rig.memcon->testsFailed(), 1u);
    EXPECT_GE(rig.memcon->testsPassed(), 1u);
    // The condemned row never reaches LO-REF; the clean one does.
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{5}));
    EXPECT_TRUE(rig.memcon->isLoRef(RowId{9}));
}

TEST(OnlineMemcon, DemandWriteDemotesLoRow)
{
    Rig rig;
    rig.writeRow(7);
    rig.spin(250000);
    ASSERT_TRUE(rig.memcon->isLoRef(RowId{7}));
    rig.writeRow(7);
    rig.spin(100);
    EXPECT_EQ(rig.memcon->demotions(), 1u);
    EXPECT_FALSE(rig.memcon->isLoRef(RowId{7}));
}

TEST(OnlineMemcon, PerBankLoFractionsPartitionTheModule)
{
    // 2048 rows over the 8-bank map: 256 rows per bank, and the
    // per-bank LO fractions must always reassemble the global one
    // exactly (they are views of the same counters).
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.addressMap = dram::AddressMap::paperDdr3_8bank();
    Rig rig(cfg);
    for (std::uint64_t r = 0; r < 8; ++r)
        rig.writeRow(r);
    rig.spin(250000);
    ASSERT_GT(rig.memcon->loRefFraction(), 0.0);
    double weighted = 0.0;
    for (std::uint64_t s = 0; s < 8; ++s) {
        const double f = rig.memcon->loRefFraction(s);
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
        weighted += f * 256.0;
    }
    EXPECT_DOUBLE_EQ(weighted / 2048.0, rig.memcon->loRefFraction());
}

TEST(OnlineMemcon, DemotionDebitsTheRowsOwnBank)
{
    // Row 13 sits in bank 5 of the 8-bank map (13 & 7): its
    // promotion credits exactly that bank and its write-demotion
    // debits it again. Every other row is condemned by the oracle, so
    // the background read-only sweep cannot promote anything else and
    // the per-bank counters are fully deterministic.
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.addressMap = dram::AddressMap::paperDdr3_8bank();
    auto oracle = [](RowId row) { return row != RowId{13}; };
    Rig rig(cfg, oracle);
    rig.writeRow(13);
    rig.spin(250000);
    ASSERT_TRUE(rig.memcon->isLoRef(RowId{13}));
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_DOUBLE_EQ(rig.memcon->loRefFraction(s),
                         s == 5 ? 1.0 / 256.0 : 0.0)
            << "bank " << s;

    rig.writeRow(13);
    rig.spin(100);
    ASSERT_FALSE(rig.memcon->isLoRef(RowId{13}));
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_DOUBLE_EQ(rig.memcon->loRefFraction(s), 0.0)
            << "bank " << s;
}

TEST(OnlineMemcon, IdentityMapHasOneWholeModuleBucket)
{
    Rig rig;
    rig.writeRow(3);
    rig.spin(250000);
    EXPECT_DOUBLE_EQ(rig.memcon->loRefFraction(0),
                     rig.memcon->loRefFraction());
}

TEST(OnlineMemcon, ControllerRefreshReductionTracksLoFraction)
{
    Rig rig;
    EXPECT_DOUBLE_EQ(rig.mc->refreshReduction(), 0.0);
    for (std::uint64_t r = 0; r < 64; ++r)
        rig.writeRow(r);
    rig.spin(600000);
    double expected = rig.memcon->emergentReduction();
    EXPECT_GT(expected, 0.0);
    // The controller lags by at most one retarget period.
    EXPECT_NEAR(rig.mc->refreshReduction(), expected, 0.01);
    EXPECT_NEAR(expected,
                rig.memcon->loRefFraction() * 0.75, 1e-12);
}

TEST(OnlineMemcon, SlotBudgetQueuesCandidates)
{
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.testEngine.slots = 2;
    Rig rig(cfg);
    for (std::uint64_t r = 0; r < 32; ++r)
        rig.writeRow(r);
    rig.spin(1200000);
    // All 32 written rows eventually reach LO-REF despite only 2
    // concurrent slots (read-only rows are tested too).
    EXPECT_GE(rig.memcon->testsPassed(), 32u);
    for (std::uint64_t r = 0; r < 32; ++r)
        EXPECT_TRUE(rig.memcon->isLoRef(RowId{r})) << "row " << r;
}

TEST(OnlineMemcon, CopyAndCompareReserveExhaustionKeepsCandidates)
{
    // One reserve row and four slots: every candidate past the first
    // in-flight test finds the reserve region full. Read-only rows
    // are swept once, so a candidate dropped there is never tested;
    // each must wait for the reserve row instead.
    dram::Geometry geom = Rig::smallGeom();
    geom.banks = 1;
    geom.rowsPerBank = 64;
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.testIdle = usToTicks(5.0);
    cfg.testEngine.mode = TestMode::CopyAndCompare;
    cfg.testEngine.slots = 4;
    cfg.testEngine.reserveRowsPerBank = 1;
    cfg.testEngine.banks = 1;
    Rig rig(cfg, {}, geom);
    rig.spin(600000); // 750 us: 64 serialized tests after the sweep
    EXPECT_EQ(rig.memcon->testsStarted(), 64u);
    EXPECT_EQ(rig.memcon->testsPassed(), 64u);
    EXPECT_DOUBLE_EQ(rig.memcon->loRefFraction(), 1.0);
}

TEST(OnlineMemcon, FullSystemClosedLoop)
{
    // End to end with real cores: the reduction emerges and the
    // refresh count drops relative to a MEMCON-less run. A tiny
    // module and compressed quanta keep the test fast.
    dram::Geometry geom = Rig::smallGeom();
    geom.rowsPerBank = 16; // 128 rows
    auto timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});

    auto run = [&](bool with_memcon) {
        OnlineMemcon *slot = nullptr;
        sim::ControllerConfig mc_cfg;
        if (with_memcon)
            OnlineMemcon::installObserver(mc_cfg, slot);
        sim::MemoryController mc(geom, timing, mc_cfg);

        OnlineMemconConfig om_cfg = Rig::smallConfig();
        om_cfg.quantum = usToTicks(10.0);
        om_cfg.testIdle = usToTicks(5.0);
        std::unique_ptr<OnlineMemcon> om;
        if (with_memcon) {
            om = std::make_unique<OnlineMemcon>(geom, mc, om_cfg);
            slot = om.get();
        }

        trace::CpuAccessStream stream(
            trace::CpuPersona::byName("perlbench"), 1);
        sim::SimpleCore core(0, std::move(stream), mc, 0,
                             geom.totalBlocks());
        Tick now{};
        const Tick horizon = msToTicks(0.8);
        while (now < horizon) {
            now += timing.tCk;
            mc.tick(now);
            if (om)
                om->tick(now);
            for (unsigned k = 0; k < 5; ++k)
                core.tick(now);
        }
        return std::pair{static_cast<double>(mc.stats().refresh) /
                             ticksToMs(now).value(),
                         om ? om->loRefFraction() : 0.0};
    };

    auto [base_rate, base_lo] = run(false);
    auto [memcon_rate, memcon_lo] = run(true);
    // Time compression makes the demand write rate ~1000x higher
    // relative to the quantum than in real time, so the equilibrium
    // LO share is modest; what matters is that rows migrate and the
    // refresh rate follows.
    EXPECT_GT(memcon_lo, 0.15);
    EXPECT_LT(memcon_rate, base_rate * 0.9);
}

// ---------------------------------------------------------------------
// OnlineMemcon over a recording fake ControllerPort
// ---------------------------------------------------------------------

/** Accepts (or refuses) every test access and records each call. */
struct RecordingPort final : ControllerPort
{
    struct Access
    {
        std::uint64_t addr;
        bool isWrite;
    };

    bool
    enqueueTest(std::uint64_t addr, bool is_write, Tick) override
    {
        if (!accepting)
            return false;
        accesses.push_back({addr, is_write});
        return true;
    }

    void
    setRefreshReduction(double reduction) override
    {
        retargets.push_back({*clock, reduction});
        emergentAtRetarget.push_back(memcon->emergentReduction());
    }

    bool accepting = true;
    std::vector<Access> accesses;
    std::vector<std::pair<Tick, double>> retargets;
    std::vector<double> emergentAtRetarget;
    const Tick *clock = nullptr;
    const OnlineMemcon *memcon = nullptr;
};

/** OnlineMemcon alone, ticked on the DDR3-1600 clock. */
struct PortRig
{
    PortRig(const OnlineMemconConfig &cfg, const dram::Geometry &geometry)
        : geom(geometry), memcon(geom, port, cfg)
    {
        port.clock = &now;
        port.memcon = &memcon;
    }

    void
    spinUntil(Tick end)
    {
        while (now < end) {
            now += nsToTicks(1.25);
            memcon.tick(now);
        }
    }

    RowId
    rowOf(std::uint64_t addr) const
    {
        return geom.flatRowIndex(geom.decompose(addr));
    }

    std::uint64_t
    addrOf(std::uint64_t row, unsigned column = 0) const
    {
        dram::Coordinates c = geom.rowFromFlatIndex(RowId{row});
        c.column = column;
        return geom.compose(c);
    }

    dram::Geometry geom;
    RecordingPort port;
    OnlineMemcon memcon;
    Tick now{};
};

dram::Geometry
eightRowGeom()
{
    dram::Geometry g;
    g.banks = 1;
    g.rowsPerBank = 8;
    return g;
}

/**
 * One slot serializes the tests, so the recorded traffic splits into
 * one block per test: a read pass, the copy writes (Copy&Compare
 * only), and the read-back pass, each over every column of the row
 * in order.
 */
void
expectOneBlockPerTest(TestMode mode)
{
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.quantum = usToTicks(10.0);
    cfg.testIdle = usToTicks(5.0);
    cfg.testEngine.mode = mode;
    cfg.testEngine.slots = 1;
    PortRig rig(cfg, eightRowGeom());
    rig.memcon.observeWrite(rig.addrOf(5), rig.now); // a PRIL candidate
    rig.spinUntil(usToTicks(100.0));

    // The written row comes through PRIL, the other seven through the
    // read-only sweep; each is tested once and passes.
    const std::uint64_t rows = rig.geom.totalRows();
    ASSERT_EQ(rig.memcon.testsStarted(), rows);
    ASSERT_EQ(rig.memcon.testsPassed(), rows);
    const bool copy = mode == TestMode::CopyAndCompare;
    const unsigned cols = rig.geom.columnsPerRow;
    const std::size_t per_test = (copy ? 3u : 2u) * cols;
    ASSERT_EQ(rig.port.accesses.size(), rows * per_test);

    std::set<std::uint64_t> tested;
    for (std::size_t t = 0; t < rows; ++t) {
        const RowId row = rig.rowOf(rig.port.accesses[t * per_test].addr);
        tested.insert(row.value());
        for (std::size_t i = 0; i < per_test; ++i) {
            const RecordingPort::Access &a =
                rig.port.accesses[t * per_test + i];
            EXPECT_EQ(rig.rowOf(a.addr), row) << "test " << t << " #" << i;
            EXPECT_EQ(rig.geom.decompose(a.addr).column, i % cols);
            EXPECT_EQ(a.isWrite, copy && i / cols == 1)
                << "test " << t << " #" << i;
        }
    }
    EXPECT_EQ(tested.size(), rows);
}

TEST(OnlineMemconPort, ReadAndCompareReadsTheRowTwice)
{
    expectOneBlockPerTest(TestMode::ReadAndCompare);
}

TEST(OnlineMemconPort, CopyAndCompareAddsOneWritePass)
{
    expectOneBlockPerTest(TestMode::CopyAndCompare);
}

TEST(OnlineMemconPort, VictimRefreshIsOneReadAtColumnZero)
{
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.quantum = msToTicks(10.0); // no test traffic in this window
    cfg.disturbGuard.enabled = true;
    cfg.disturbGuard.actAlertThreshold = 16;
    std::vector<RowId> refreshed;
    cfg.victimRefresher = [&refreshed](RowId victim, Tick) {
        refreshed.push_back(victim);
    };
    dram::Geometry geom = eightRowGeom();
    geom.rowsPerBank = 64;
    PortRig rig(cfg, geom);

    // Sixteen ACTs of row 10 cross the alert threshold once.
    for (int i = 0; i < 16; ++i)
        rig.memcon.observeActivate(rig.addrOf(10, 7), rig.now);
    rig.port.accepting = false; // admission limit reached: retry later
    rig.spinUntil(usToTicks(1.0));
    EXPECT_TRUE(rig.port.accesses.empty());
    EXPECT_EQ(rig.memcon.victimRefreshes(), 0u);

    rig.port.accepting = true;
    rig.spinUntil(usToTicks(2.0));
    const std::vector<RowId> victims = {RowId{9}, RowId{11}, RowId{8},
                                        RowId{12}};
    ASSERT_EQ(rig.port.accesses.size(), victims.size());
    for (std::size_t i = 0; i < victims.size(); ++i) {
        const RecordingPort::Access &a = rig.port.accesses[i];
        EXPECT_FALSE(a.isWrite);
        EXPECT_EQ(rig.rowOf(a.addr), victims[i]);
        EXPECT_EQ(rig.geom.decompose(a.addr).column, 0u);
    }
    EXPECT_EQ(rig.memcon.victimRefreshes(), victims.size());
    EXPECT_EQ(refreshed, victims);
}

TEST(OnlineMemconPort, BankDegradeHoldsTheBankAtHiRefUntilRecovery)
{
    // 64 rows in two 32-row banks. Two alert crossings of one
    // aggressor inside the window degrade its bank: every LO row of
    // that bank demotes, a test that passes there during the hold is
    // not promoted, and once the hold expires quietly every row of
    // the bank is re-tested and promoted again.
    OnlineMemconConfig cfg = Rig::smallConfig();
    cfg.quantum = usToTicks(10.0);
    cfg.testIdle = usToTicks(5.0);
    cfg.addressMap = dram::AddressMap::blocked(1, 5);
    cfg.disturbGuard.enabled = true;
    cfg.disturbGuard.actAlertThreshold = 4;
    cfg.disturbGuard.bankCrossingLimit = 2;
    cfg.disturbGuard.maxVictimRefreshes = 1000; // no per-row escalation
    cfg.disturbGuard.crossingWindow = usToTicks(100.0);
    cfg.disturbGuard.bankDegradeHold = usToTicks(100.0);
    dram::Geometry geom = eightRowGeom();
    geom.rowsPerBank = 64;
    PortRig rig(cfg, geom);
    const MemconEvents &events = rig.memcon.events();

    rig.spinUntil(usToTicks(300.0)); // the read-only sweep certifies all
    ASSERT_EQ(rig.memcon.loRefFraction(0), 1.0);
    ASSERT_EQ(rig.memcon.loRefFraction(1), 1.0);

    for (int i = 0; i < 8; ++i) // rows 32-63 are bank 1
        rig.memcon.observeActivate(rig.addrOf(40), rig.now);
    const Tick hold_end = rig.now + cfg.disturbGuard.bankDegradeHold;
    EXPECT_EQ(events.demotedBy(DemoteCause::BankDegrade), 32u);
    EXPECT_EQ(rig.memcon.loRefFraction(1), 0.0);
    EXPECT_EQ(rig.memcon.loRefFraction(0), 1.0);

    // A write makes row 45 a PRIL candidate; its test passes inside
    // the hold, and the promotion is blocked.
    rig.memcon.observeWrite(rig.addrOf(45), rig.now);
    while (rig.now + usToTicks(1.0) < hold_end) {
        rig.spinUntil(rig.now + usToTicks(1.0));
        ASSERT_EQ(rig.memcon.loRefFraction(1), 0.0)
            << "bank 1 promoted a row during the hold, at "
            << rig.now.value() << " ps";
    }
    EXPECT_EQ(events.disturbPromotionsBlocked, 1u);
    EXPECT_EQ(events.disturbBankRecoveries, 0u);

    rig.spinUntil(hold_end + usToTicks(200.0));
    EXPECT_EQ(events.disturbBankRecoveries, 1u);
    EXPECT_EQ(rig.memcon.loRefFraction(1), 1.0);
    EXPECT_EQ(rig.memcon.loRefFraction(0), 1.0);
    EXPECT_EQ(events.demotedBy(DemoteCause::BankDegrade), 32u);
}

TEST(OnlineMemconPort, EveryRetargetPeriodSetsTheEmergentReduction)
{
    OnlineMemconConfig cfg = Rig::smallConfig(); // retarget every 25 us
    PortRig rig(cfg, Rig::smallGeom());
    for (std::uint64_t r = 0; r < 64; ++r)
        rig.memcon.observeWrite(rig.addrOf(r), rig.now);
    rig.spinUntil(usToTicks(300.0));

    ASSERT_EQ(rig.port.retargets.size(), 12u);
    for (std::size_t i = 0; i < rig.port.retargets.size(); ++i) {
        const auto &[at, reduction] = rig.port.retargets[i];
        EXPECT_EQ(at, cfg.retargetPeriod * (i + 1)) << "call " << i;
        EXPECT_EQ(reduction, rig.port.emergentAtRetarget[i])
            << "call " << i;
    }
    EXPECT_GT(rig.port.retargets.back().second, 0.0);
    EXPECT_EQ(rig.port.retargets.back().second,
              rig.memcon.emergentReduction());
}

} // namespace
} // namespace memcon::core
