/**
 * @file
 * Cost-benefit sweep of the read-disturb mitigation (extension figure,
 * companion to the abl_disturb_loref ablation).
 *
 * The guard's one first-order knob is the aggressor alert threshold:
 * how many ACTs an aggressor may issue before its neighbors are
 * refreshed out of band. Lower is safer and more expensive - every
 * crossing spends victim-refresh request slots and, for chronic
 * aggressors, demotes victims back to HI-REF, eating into the refresh
 * reduction MEMCON exists to deliver. This sweep runs a double-sided
 * attacker against the closed loop across alert thresholds from "off"
 * down to a quarter of the weakest row's flip threshold and reports
 * both sides of the trade: residual victim flips on one axis, victim
 * refreshes + test traffic + retained refresh reduction on the other.
 *
 * Deterministic for any --threads; smoke-tested via --quick.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "core/online_memcon.hh"
#include "failure/disturb.hh"
#include "failure/injector.hh"
#include "runner.hh"
#include "sim/system.hh"
#include "trace/cpu_gen.hh"
#include "trace/hammer.hh"

using namespace memcon;
using namespace memcon::core;

namespace
{

bench::Metrics
runOne(std::uint64_t alert, std::uint64_t seed, bool quick)
{
    dram::Geometry geom;
    geom.rowsPerBank = 64; // 512 rows
    auto timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    const dram::AddressMap map = dram::AddressMap::blocked(3, 6);

    failure::DisturbParams dp;
    dp.hiWindowMs = 0.25;
    dp.loWindowMs = 1.0;
    dp.medianThreshold = 3500;
    dp.minThreshold = 2600;
    dp.seed = hashMix64(seed ^ 0xd157);
    failure::DisturbModel disturb(dp, &map, geom.totalRows());

    failure::FaultInjectorConfig inj_cfg;
    inj_cfg.transientPerRowPerMs = 0.0;
    inj_cfg.seed = hashMix64(seed ^ 0x1faf11);
    failure::FaultInjector injector(inj_cfg, geom.totalRows());
    injector.attachDisturb(&disturb);

    Tick now{};

    OnlineMemcon *slot = nullptr;
    sim::ControllerConfig mc_cfg;
    OnlineMemcon::installObserver(mc_cfg, slot);
    mc_cfg.eccProbe = [&](std::uint64_t addr, Tick t) {
        RowId row = geom.flatRowIndex(geom.decompose(addr));
        bool lo = slot && slot->isLoRef(row);
        return injector.onRead(row, t, lo);
    };
    auto inner_write = mc_cfg.writeObserver;
    mc_cfg.writeObserver = [&, inner_write](std::uint64_t addr, Tick t) {
        injector.onRowRestored(geom.flatRowIndex(geom.decompose(addr)),
                               t);
        if (inner_write)
            inner_write(addr, t);
    };
    auto inner_act = mc_cfg.activateObserver;
    mc_cfg.activateObserver = [&, inner_act](std::uint64_t addr, Tick t) {
        disturb.onActivate(geom.flatRowIndex(geom.decompose(addr)), t);
        if (inner_act)
            inner_act(addr, t);
    };
    sim::MemoryController mc(geom, timing, mc_cfg);

    OnlineMemconConfig om_cfg;
    om_cfg.quantum = usToTicks(20.0);
    om_cfg.testIdle = usToTicks(10.0);
    om_cfg.retargetPeriod = usToTicks(10.0);
    om_cfg.testEngine.slots = 16;
    om_cfg.testEngine.wordsPerRow = 64;
    om_cfg.addressMap = map;
    om_cfg.resilience.enabled = true;
    om_cfg.resilience.retestBackoff = usToTicks(20.0);
    om_cfg.resilience.fallbackHold = usToTicks(60.0);
    if (alert != 0) {
        om_cfg.disturbGuard.enabled = true;
        om_cfg.disturbGuard.actAlertThreshold = alert;
        om_cfg.disturbGuard.crossingWindow = usToTicks(200.0);
        om_cfg.disturbGuard.bankCrossingLimit = 64;
        om_cfg.disturbGuard.bankDegradeHold = usToTicks(100.0);
        om_cfg.victimRefresher = [&](RowId victim, Tick t) {
            disturb.onVictimRefreshed(victim, t);
        };
    }
    auto om = std::make_unique<OnlineMemcon>(
        geom, mc, om_cfg, [&](RowId row) {
            return injector.hasLatentFault(row, now, true);
        });
    slot = om.get();
    disturb.setLoRefQuery(
        [&](RowId row) { return slot->isLoRef(row); });

    // Benign traffic writes only the lower half of each bank's rows;
    // the attacker hammers the never-written upper band, which the RO
    // sweep promotes to LO-REF (see abl_disturb_loref for the layout
    // rationale).
    const std::uint64_t benign_rows = geom.rowsPerBank / 2;
    const std::uint64_t benign_blocks =
        benign_rows * geom.banks * geom.columnsPerRow;
    trace::CpuAccessStream benign(
        trace::CpuPersona::byName("perlbench"), hashMix64(seed ^ 0xc02e));
    sim::SimpleCore core(0, std::move(benign), mc, 0, benign_blocks);

    trace::HammerSpec hs;
    hs.kind = trace::HammerKind::DoubleSided;
    hs.bank = 0;
    hs.actsPerUs = 10.0;
    hs.horizonMs = quick ? 0.5 : 2.0;
    hs.rowLo = benign_rows;
    hs.seed = hashMix64(seed ^ 0xa66);
    trace::HammerStream hammer(hs, map, geom.totalRows());

    const Tick horizon = msToTicks(hs.horizonMs);
    bool held = false;
    sim::Request held_req;
    while (now < horizon) {
        now += timing.tCk;
        Tick at{};
        std::uint64_t row = 0;
        while (true) {
            if (!held) {
                if (!hammer.peek(&at, &row) || at > now)
                    break;
                hammer.pop();
                held_req = sim::Request{};
                held_req.type = sim::Request::Type::Read;
                held_req.addr =
                    geom.compose(geom.rowFromFlatIndex(RowId{row}));
                held = true;
            }
            if (!mc.enqueue(sim::Request{held_req}, now))
                break;
            held = false;
        }
        mc.tick(now);
        om->tick(now);
        for (unsigned k = 0; k < 5; ++k)
            core.tick(now);
    }

    return bench::Metrics{
        {"flips", static_cast<double>(disturb.flipsRecorded())},
        {"victim_refreshes",
         static_cast<double>(om->victimRefreshes())},
        {"tests", static_cast<double>(om->testsStarted())},
        {"crossings",
         static_cast<double>(om->disturbGuard().crossings())},
        {"bank_degrades",
         static_cast<double>(om->events().disturbBankDegrades)},
        {"pinned", static_cast<double>(om->pinnedRows())},
        {"lo_fraction", om->loRefFraction()},
        {"reduction", om->emergentReduction()},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("Fig 20 (extension): disturb mitigation trade-off",
                  "residual victim flips vs. victim-refresh cost "
                  "across guard alert thresholds");
    note("Double-sided attacker at 10 ACTs/us on bank 0's cold band "
         "of a 512-row module. Alert 0 = guard off (the unmitigated "
         "mechanism); "
         "lower thresholds refresh victims earlier, spending request "
         "slots and refresh reduction for fewer flips.");

    const std::vector<std::uint64_t> alerts = {0, 2048, 512, 128};
    bench::SweepRunner runner("fig20_disturb_tradeoff", opts);
    // One world seed across the sweep: every alert threshold faces
    // the same attacker, thresholds, and benign stream, so the curve
    // isolates the knob.
    const std::uint64_t world = deriveTaskSeed(opts.campaignSeed, 2000);
    for (std::uint64_t alert : alerts) {
        runner.add(alert == 0 ? std::string("off")
                              : strprintf("alert%llu",
                                          (unsigned long long)alert),
                   [alert, world](const bench::TaskContext &ctx) {
                       return runOne(alert, world, ctx.quick);
                   });
    }
    runner.run();

    TextTable t;
    t.header({"alert ACTs", "flips", "victim refr", "crossings",
              "tests", "bank degr", "pinned", "LO-REF", "reduction"});
    std::size_t idx = 0;
    for (std::uint64_t alert : alerts) {
        const bench::PointResult &o = runner.results()[idx++];
        t.row({alert == 0 ? "off" : TextTable::num((double)alert, 0),
               TextTable::num(o.metric("flips"), 0),
               TextTable::num(o.metric("victim_refreshes"), 0),
               TextTable::num(o.metric("crossings"), 0),
               TextTable::num(o.metric("tests"), 0),
               TextTable::num(o.metric("bank_degrades"), 0),
               TextTable::num(o.metric("pinned"), 0),
               TextTable::pct(o.metric("lo_fraction"), 1),
               TextTable::pct(o.metric("reduction"), 1)});
    }
    std::printf("%s", t.render().c_str());
    note("The knee is where victim refreshes stop buying flips: past "
         "it the guard only taxes the reduction.");
    runner.finish();
    return 0;
}
