/**
 * @file
 * Ablation: does LO-REF demotion open a RowHammer window, and does
 * scrub-wheel victim refresh close it - at what test-overhead cost?
 *
 * MEMCON's demotion policy quadruples a row's refresh interval after a
 * content test passes; a disturbance-accumulation model (DiscoRD-style
 * per-row thresholds, Blacksmith-style aggressor personas) says that
 * also quadruples the ACT count a victim accumulates between resets.
 * Three arms per persona:
 *
 *  - all-HI: loRefEnabled=false. Tests run and are paid for, but no
 *    row ever relaxes its refresh. The victim-flip floor.
 *  - LO-REF: the paper's mechanism, disturb guard off. Victims of the
 *    aggressor sit at LO-REF with a 4x accumulation window - the
 *    unmitigated coupling this ablation exists to demonstrate.
 *  - LO+guard: the mitigation arm. The controller's ACT stream feeds
 *    DisturbGuard; aggressors crossing the alert threshold get their
 *    neighbors refreshed through the request machinery, chronic
 *    victims enter the demote/backoff/pin ladder, and a bank under
 *    sustained hammering degrades to HI-REF until pressure stops.
 *
 * The aggressor co-runs with benign demand traffic; flips are scored
 * from the model's ground truth (flips recorded) and from what demand
 * reads actually surfaced (SECDED corrected/uncorrectable). The
 * mitigation's price is reported as victim refreshes plus extra test
 * traffic. In full (non-quick) mode the bench fatals unless the
 * acceptance ordering holds: LO-REF flips strictly above the all-HI
 * floor, and the guard back within the configured band of it.
 *
 * Every number is bit-identical for any --threads; the CI tsan job
 * runs this at 1 and 8 threads and compares digests.
 */

#include <algorithm>
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

enum class Arm
{
    AllHi,   //!< loRefEnabled=false: the victim-flip floor
    LoRef,   //!< the paper's mechanism, guard off (unmitigated)
    LoGuard, //!< mechanism + victim refresh + degradation ladder
};

const char *
armName(Arm arm)
{
    switch (arm) {
    case Arm::AllHi:
        return "all-HI";
    case Arm::LoRef:
        return "LO-REF";
    case Arm::LoGuard:
        return "LO+guard";
    }
    return "?";
}

/**
 * Per-persona operating point. The access rate tops out near 12/us
 * empirically: one DDR3 bank sustains ~20 ACTs/us, but the bank also
 * carries benign demand and lowest-priority test reads - much above
 * 12/us the queue stays occupied, the test engine starves, no row
 * ever reaches LO-REF, and the ablation measures nothing.
 *
 * The threshold distribution is scaled per persona so the hard floor
 * sits between that persona's HI- and LO-window accumulations: the
 * personas concentrate very different charge rates on their best
 * victim (a sandwiched double-sided victim collects both aggressors'
 * full rate; a fuzzed pattern dilutes its rate across aggressors and
 * amplitude hits), and what the ablation isolates is the *window
 * ratio*, not the absolute threshold scale.
 */
struct PersonaTuning
{
    double actsPerUs;
    std::uint64_t medianThreshold;
    std::uint64_t minThreshold;
};

PersonaTuning
tuningFor(trace::HammerKind kind)
{
    switch (kind) {
    case trace::HammerKind::SingleSided:
        return {12.0, 3000, 1700}; // victims ~6/us: HI 1.5k, LO 6k
    case trace::HammerKind::DoubleSided:
        return {10.0, 3500, 2600}; // center 10/us: HI 2.5k, LO 10k
    case trace::HammerKind::ManySided:
        return {12.0, 3000, 1700}; // interior ~6/us: HI 1.5k, LO 6k
    case trace::HammerKind::Fuzzed:
        return {12.0, 2500, 1200}; // best ~3.5/us: HI .9k, LO 3.5k
    }
    return {12.0, 3000, 1700};
}

bench::Metrics
runOne(trace::HammerKind kind, Arm arm, std::uint64_t seed, bool quick)
{
    dram::Geometry geom;
    geom.rowsPerBank = 64; // 512 rows
    auto timing =
        dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
    const dram::AddressMap map = dram::AddressMap::blocked(3, 6);

    // Windows compressed onto the run's timescale with the same 4x
    // HI:LO ratio as the real 16/64 ms pair; thresholds scaled per
    // persona (see tuningFor) so rows hold at HI-REF and flip at
    // LO-REF - exactly the coupling under test.
    const PersonaTuning tune = tuningFor(kind);
    failure::DisturbParams dp;
    dp.hiWindowMs = 0.25;
    dp.loWindowMs = 1.0;
    dp.medianThreshold = tune.medianThreshold;
    dp.minThreshold = tune.minThreshold;
    dp.seed = hashMix64(seed ^ 0xd157);
    failure::DisturbModel disturb(dp, &map, geom.totalRows());

    // The injector carries no faults of its own here: the SECDED
    // verdict stream is pure read-disturb.
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
    // Chain the failure model behind MEMCON's ACT observer: every
    // activation the controller issues - demand, test, and the
    // guard's own victim refreshes alike - disturbs neighbors.
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
    om_cfg.loRefEnabled = arm != Arm::AllHi;
    om_cfg.resilience.enabled = true;
    om_cfg.resilience.retestBackoff = usToTicks(20.0);
    om_cfg.resilience.fallbackHold = usToTicks(60.0);
    if (arm == Arm::LoGuard) {
        om_cfg.disturbGuard.enabled = true;
        // Alert well under the weakest row's threshold: a victim
        // accumulates at most ~2 aggressors x 256 ACTs between
        // refreshes, under every persona's floor.
        om_cfg.disturbGuard.actAlertThreshold = 256;
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

    // Benign demand traffic is confined to the lower half of every
    // bank's rows (RoBaRaCoCh keeps the per-bank row coordinate in
    // the address high bits, so a block span caps it). The upper half
    // is never written - exactly the population the ascending RO
    // sweep promotes to LO-REF first, and where the attacker aims:
    // cold rows are the ones that hold their relaxed interval.
    const std::uint64_t benign_rows = geom.rowsPerBank / 2;
    const std::uint64_t benign_blocks =
        benign_rows * geom.banks * geom.columnsPerRow;
    trace::CpuAccessStream benign(
        trace::CpuPersona::byName("perlbench"), hashMix64(seed ^ 0xc02e));
    sim::SimpleCore core(0, std::move(benign), mc, 0, benign_blocks);

    // The attacker: one aggressor persona hammering bank 0's cold
    // band.
    trace::HammerSpec hs;
    hs.kind = kind;
    hs.bank = 0;
    hs.sides = 4;
    hs.actsPerUs = tune.actsPerUs;
    hs.horizonMs = quick ? 0.5 : 2.0;
    hs.rowLo = benign_rows;
    hs.seed = hashMix64(seed ^ 0xa66);
    trace::HammerStream hammer(hs, map, geom.totalRows());

    const Tick horizon = msToTicks(hs.horizonMs);
    const Tick sample_period = usToTicks(40.0);
    Tick next_sample = sample_period;
    std::uint64_t samples = 0, latent_sum = 0, latent_peak = 0;
    bool held = false;
    sim::Request held_req;
    while (now < horizon) {
        now += timing.tCk;
        // Drain due aggressor accesses as demand reads; a full
        // controller queue holds the access and retries next cycle.
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
        if (now >= next_sample) {
            next_sample += sample_period;
            std::uint64_t latent = 0;
            for (std::uint64_t r = 0; r < geom.totalRows(); ++r)
                if (om->isLoRef(RowId{r}) &&
                    disturb.hasLatentFlip(RowId{r}))
                    ++latent;
            ++samples;
            latent_sum += latent;
            latent_peak = std::max(latent_peak, latent);
        }
    }

    return bench::Metrics{
        {"flips", static_cast<double>(disturb.flipsRecorded())},
        {"flips_single", static_cast<double>(disturb.singleFlips())},
        {"flips_double", static_cast<double>(disturb.doubleFlips())},
        {"corrected", static_cast<double>(om->events().eccCorrected)},
        {"uncorrectable",
         static_cast<double>(om->events().eccUncorrectable)},
        {"victim_refreshes",
         static_cast<double>(om->victimRefreshes())},
        {"tests", static_cast<double>(om->testsStarted())},
        {"bank_degrades",
         static_cast<double>(om->events().disturbBankDegrades)},
        {"pinned", static_cast<double>(om->pinnedRows())},
        {"lo_fraction", om->loRefFraction()},
        {"reduction", om->emergentReduction()},
        {"avg_latent_lo_rows",
         samples ? static_cast<double>(latent_sum) / samples : 0.0},
        {"peak_latent_lo_rows", static_cast<double>(latent_peak)},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("Ablation: LO-REF demotion vs. read disturb",
                  "victim flips under aggressor personas, with and "
                  "without scrub-wheel victim refresh");
    note("512-row module, one aggressor persona hammering bank 0's "
         "cold band at 10-12 accesses/us beside benign demand "
         "traffic. Disturb windows compressed to 0.25/1.0 ms (HI/LO, "
         "the real 4x ratio); per-row lognormal thresholds scaled so "
         "each persona's floor splits its HI/LO accumulations.");

    const std::vector<trace::HammerKind> kinds = {
        trace::HammerKind::SingleSided, trace::HammerKind::DoubleSided,
        trace::HammerKind::ManySided, trace::HammerKind::Fuzzed};
    const std::vector<Arm> arms = {Arm::AllHi, Arm::LoRef,
                                   Arm::LoGuard};
    bench::SweepRunner runner("abl_disturb_loref", opts);
    std::size_t kind_index = 0;
    for (trace::HammerKind kind : kinds) {
        // All three arms of a persona share one world seed: same
        // aggressor pattern, same per-row thresholds, same benign
        // stream. The only difference between arms is policy, so the
        // flip ordering is a genuine ablation, not seed noise.
        const std::uint64_t world =
            deriveTaskSeed(opts.campaignSeed, 1000 + kind_index++);
        for (Arm arm : arms) {
            runner.add(strprintf("%s/%s", trace::hammerKindName(kind),
                                 armName(arm)),
                       [kind, arm, world](const bench::TaskContext &ctx) {
                           return runOne(kind, arm, world, ctx.quick);
                       });
        }
    }
    runner.run();

    TextTable t;
    t.header({"persona", "arm", "flips", "1b/2b", "ECC c/u",
              "victim refr", "tests", "bank degr", "LO-REF",
              "reduction", "latent LO (avg/peak)"});
    std::size_t idx = 0;
    for (trace::HammerKind kind : kinds) {
        for (Arm arm : arms) {
            const bench::PointResult &o = runner.results()[idx++];
            t.row({trace::hammerKindName(kind), armName(arm),
                   TextTable::num(o.metric("flips"), 0),
                   TextTable::num(o.metric("flips_single"), 0) + "/" +
                       TextTable::num(o.metric("flips_double"), 0),
                   TextTable::num(o.metric("corrected"), 0) + "/" +
                       TextTable::num(o.metric("uncorrectable"), 0),
                   TextTable::num(o.metric("victim_refreshes"), 0),
                   TextTable::num(o.metric("tests"), 0),
                   TextTable::num(o.metric("bank_degrades"), 0),
                   TextTable::pct(o.metric("lo_fraction"), 1),
                   TextTable::pct(o.metric("reduction"), 1),
                   TextTable::num(o.metric("avg_latent_lo_rows"), 2) +
                       " / " +
                       TextTable::num(o.metric("peak_latent_lo_rows"),
                                      0)});
        }
    }
    std::printf("%s", t.render().c_str());

    // The acceptance ordering, checked per persona on the full run
    // (the quick horizon is too short for clean separation): LO-REF
    // must raise flips above the all-HI floor, and the guard must pull
    // them back to within the floor plus a small band while still
    // paying victim refreshes for it.
    if (!opts.quick) {
        idx = 0;
        for (trace::HammerKind kind : kinds) {
            const double hi =
                runner.results()[idx + 0].metric("flips");
            const double lo =
                runner.results()[idx + 1].metric("flips");
            const double guarded =
                runner.results()[idx + 2].metric("flips");
            const double refreshes =
                runner.results()[idx + 2].metric("victim_refreshes");
            idx += 3;
            fatal_if(lo <= hi,
                     "%s: LO-REF arm did not raise flips (%g vs %g)",
                     trace::hammerKindName(kind), lo, hi);
            fatal_if(guarded > hi + 0.25 * (lo - hi),
                     "%s: guard left flips at %g (floor %g, "
                     "unmitigated %g)",
                     trace::hammerKindName(kind), guarded, hi, lo);
            fatal_if(refreshes == 0.0,
                     "%s: guard arm issued no victim refreshes",
                     trace::hammerKindName(kind));
            const double overhead =
                runner.results()[idx - 1].metric("tests") +
                refreshes -
                runner.results()[idx - 2].metric("tests");
            note(strprintf("%s: flips %g -> %g (floor %g), mitigation "
                           "overhead %+g test-slot ops",
                           trace::hammerKindName(kind), lo, guarded, hi,
                           overhead));
        }
        note("acceptance ordering verified: LO-REF raises flips, "
             "victim refresh restores the floor band");
    }
    runner.finish();
    return 0;
}
