/**
 * @file
 * memcond: four tenants on one service host - a priority-2 focus
 * tenant, a polite filler, an over-quota antagonist and a RowHammer
 * antagonist under the disturb guard - with snapshots sealed to a
 * scratch file. Offered rates are fixed in simulated time (open
 * loop), so the rings back up and the service drops and sheds.
 * Loads ring, admission, governor and snapshot/journal, and reaches
 * OnlineMemcon through the activate/disturb path.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <cmath>

#include "bench.hh"
#include "common/random.hh"
#include "service/memcond.hh"

namespace perfbench
{

namespace
{

using namespace memcon;

constexpr std::uint64_t kRounds = 48;
constexpr double kRoundUs = 20.0;
/** Independent services per pass (seeds derived from --seed): their
 * mean keeps the deterministic metrics steady across seeds, and a
 * pass stays short enough that every service is timed several times
 * in a run. */
constexpr unsigned kServices = 4;

service::MemcondConfig
serviceConfig(const Args &args, unsigned index, bool snapshots)
{
    service::MemcondConfig cfg;
    cfg.artifact = "perfbench";
    cfg.seed = deriveTaskSeed(args.seed, index);
    cfg.threads = 1;
    cfg.rounds = kRounds;
    cfg.roundTicks = usToTicks(kRoundUs);
    // Quotas sum to 32 events a round against a 24-event budget, so
    // the antagonists push the governor up its ladder.
    cfg.admission.globalBudgetPerRound = 24;
    cfg.admission.maxGrantPerRound = 8;

    cfg.tenant.geometry.rowsPerBank = 16; // 128 rows per tenant
    cfg.tenant.ringCapacity = 64;
    cfg.tenant.memcon.quantum = usToTicks(50.0);
    cfg.tenant.memcon.testIdle = usToTicks(20.0);
    cfg.tenant.memcon.retargetPeriod = usToTicks(25.0);
    cfg.tenant.memcon.testEngine.slots = 4;
    cfg.tenant.memcon.testEngine.wordsPerRow = 8;
    cfg.tenant.memcon.disturbGuard.enabled = true;
    cfg.tenant.memcon.disturbGuard.actAlertThreshold = 32;

    cfg.snapshotEveryRounds = 8;
    if (snapshots)
        cfg.snapshotPath = args.outDir + "/memcond-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(index) + ".snap";
    return cfg;
}

std::vector<service::TenantSpec>
tenantMix()
{
    std::vector<service::TenantSpec> specs(4);
    specs[0].name = "focus";
    specs[0].priority = 2;
    specs[1].name = "filler";
    specs[1].priority = 2;
    specs[2].name = "overquota";
    specs[2].priority = 1;
    specs[2].rateScale = 4.0;
    specs[3].name = "hammer";
    specs[3].priority = 2;
    specs[3].hammerEnabled = true;
    specs[3].hammer.kind = trace::HammerKind::DoubleSided;
    specs[3].hammer.actsPerUs = 0.4;
    for (auto &s : specs)
        s.quotaPerRound = 8;
    return specs;
}

/** Totals across tenants after a run. */
struct Totals
{
    double generated = 0, applied = 0, dropsBp = 0, dropsShed = 0,
           throttled = 0, backlog = 0, lossGap = 0, writes = 0,
           testsStarted = 0, testsAborted = 0, demotions = 0,
           victimRefreshes = 0, crossings = 0;
};

Totals
totalsOf(const service::Memcond &svc)
{
    Totals t;
    for (std::size_t i = 0; i < svc.tenantCount(); ++i) {
        const service::TenantSession &s = svc.tenant(i);
        const double backlog = static_cast<double>(s.ringBacklog()) +
                               (s.hasHeldEvent() ? 1.0 : 0.0);
        const double gen = static_cast<double>(s.generatedCount());
        const double app = static_cast<double>(s.appliedCount());
        const double bp = static_cast<double>(s.droppedBackpressure());
        const double shed = static_cast<double>(s.droppedShed());
        t.lossGap = std::max(t.lossGap, std::abs(gen - (app + bp + shed +
                                                        backlog)));
        t.generated += gen;
        t.applied += app;
        t.dropsBp += bp;
        t.dropsShed += shed;
        t.throttled += static_cast<double>(s.throttledTicks());
        t.backlog += backlog;
        const core::OnlineMemcon &om = s.memcon();
        t.writes += static_cast<double>(om.writesObserved());
        t.testsStarted += static_cast<double>(om.testsStarted());
        t.testsAborted += static_cast<double>(om.testsAborted());
        t.demotions += static_cast<double>(om.demotions());
        t.victimRefreshes += static_cast<double>(om.victimRefreshes());
        t.crossings += static_cast<double>(om.disturbGuard().crossings());
    }
    return t;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

Outcome
runMemcond(const Args &args, Tracer &tracer)
{
    Outcome out;
    pinToCurrentCpu();
    const std::vector<service::TenantSpec> specs = tenantMix();
    std::vector<service::MemcondConfig> cfgs, bare_cfgs;
    for (unsigned k = 0; k < kServices; ++k) {
        cfgs.push_back(serviceConfig(args, k, true));
        bare_cfgs.push_back(serviceConfig(args, k, false));
    }
    std::vector<std::string> first_digest(kServices);
    auto check_service = [&](unsigned k, const service::Memcond &svc,
                             const Totals &t) {
        bool ok = true;
        const std::string d = svc.digest();
        if (first_digest[k].empty())
            first_digest[k] = d;
        if (d != first_digest[k]) {
            ok = false;
            out.failures.push_back("Memcond::digest() differs between "
                                   "passes of one seed: " +
                                   first_digest[k] + " vs " + d);
        }
        if (t.lossGap != 0.0) {
            ok = false;
            out.failures.push_back(
                "loss identity broken: generated != applied + drops + "
                "backlog + held (gap " +
                std::to_string(t.lossGap) + ")");
        }
        return ok;
    };

    // Set-up: admission, sessions, controllers, OnlineMemcon and the
    // tenant streams of every service, sampled before every untraced
    // pass while no service is alive.
    auto build_all = [&] {
        std::vector<std::unique_ptr<service::Memcond>> svcs;
        for (unsigned k = 0; k < kServices; ++k)
            svcs.push_back(std::make_unique<service::Memcond>(cfgs[k], specs));
        return svcs;
    };
    std::vector<double> setup;

    // Each service run is cut at its snapshots (every
    // snapshotEveryRounds rounds, on the calling thread) into segments
    // that repeat exactly in every pass; each is one timing unit. Each
    // service applies the same events in every pass, so the rate is
    // one pass's applied events over the estimated pass time.
    Clock::time_point seg0;
    std::vector<double> segs;
    for (auto &c : cfgs)
        c.snapshotHook = [&](std::uint64_t) {
            const Clock::time_point now = Clock::now();
            segs.push_back(std::chrono::duration<double>(now - seg0).count());
            seg0 = now;
        };
    // Runs service k, adding its segments to `units`; returns the
    // run's host seconds.
    auto timed_run = [&](service::Memcond &svc, unsigned k,
                         UnitTimes &units) {
        segs.clear();
        const Clock::time_point t0 = Clock::now();
        seg0 = t0;
        svc.run();
        segs.push_back(secondsSince(seg0));
        for (std::size_t j = 0; j < segs.size(); ++j)
            units.add(k * (kRounds + 1) + j, segs[j]);
        return secondsSince(t0);
    };
    UnitTimes segment_s;
    std::vector<double> rates;
    double red = 0.0, drop = 0.0, applied = 0.0;
    const double untraced_budget =
        args.trace ? args.seconds * 0.5 : args.seconds;
    timedPasses(untraced_budget, 2, [&] {
        double dropped = 0.0, generated = 0.0, run_s = 0.0;
        bool ok = true;
        red = applied = 0.0;
        sampleSetup(setup, 3, 1, build_all);
        std::vector<std::unique_ptr<service::Memcond>> svcs = build_all();
        for (unsigned k = 0; k < kServices; ++k) {
            service::Memcond &svc = *svcs[k];
            run_s += timed_run(svc, k, segment_s);
            const Totals t = totalsOf(svc);
            ok &= check_service(k, svc, t);
            applied += t.applied;
            dropped += t.dropsBp + t.dropsShed;
            generated += t.generated;
            red += svc.tenant(0).memcon().emergentReduction() / kServices;
        }
        ++out.attempted;
        out.failed += ok ? 0 : 1;
        rates.push_back(applied / run_s);
        drop = ratio(dropped, generated);
    });
    for (const auto &c : cfgs)
        std::remove(c.snapshotPath.c_str());
    out.check(drop > 0.0, "the overload mix dropped nothing");
    const double untraced_rate = applied / segment_s.passSeconds();
    segment_s.saveTo(out);

    out.samples["service_events_per_s"] = rates;
    out.samples["setup_s"] = setup;
    out.endToEnd["setup_s"] = {fastest(setup), "s"};
    out.endToEnd["service_events_per_s"] = {untraced_rate, "events/s"};
    out.endToEnd["sim_cycles_per_s"] = {1.0, "cycles/s", false};
    out.endToEnd["engine_events_per_s"] = {1.0, "events/s", false};
    out.endToEnd["refresh_reduction"] = {red, "fraction"};
    out.endToEnd["drop_ratio"] = {drop, "fraction"};
    out.endToEnd["lo_coverage"] = {1.0, "fraction", false};
    out.endToEnd["test_overhead"] = {1.0, "fraction", false};
    out.endToEnd["ipc_sum"] = {1.0, "IPC", false};

    if (!args.trace)
        return out;

    // Traced passes: one span per constructor and run() call, each
    // service paired with a run without snapshots to price
    // snapshot/journal. Counters sum over the pass's services.
    UnitTimes traced_segment_s;
    std::vector<double> ctor_s, run_s, bare_s;
    Totals sum;
    double escalations = 0.0, max_stage = 0.0;
    timedPasses(args.seconds * 0.5, 1, [&] {
        Scoped pass(tracer, "pass");
        double ctor = 0.0, run = 0.0, bare = 0.0;
        bool ok = true;
        sum = Totals{};
        escalations = max_stage = 0.0;
        for (unsigned k = 0; k < kServices; ++k) {
            std::unique_ptr<service::Memcond> svc;
            {
                Scoped span(tracer, "service.ctor", pass.id());
                const Clock::time_point c0 = Clock::now();
                svc = std::make_unique<service::Memcond>(cfgs[k], specs);
                ctor += secondsSince(c0);
            }
            {
                Scoped span(tracer, "service.run", pass.id());
                run += timed_run(*svc, k, traced_segment_s);
            }
            const Totals t = totalsOf(*svc);
            ok &= check_service(k, *svc, t);
            sum.generated += t.generated;
            sum.applied += t.applied;
            sum.dropsBp += t.dropsBp;
            sum.dropsShed += t.dropsShed;
            sum.throttled += t.throttled;
            sum.backlog += t.backlog;
            sum.lossGap = std::max(sum.lossGap, t.lossGap);
            sum.testsStarted += t.testsStarted;
            sum.testsAborted += t.testsAborted;
            sum.demotions += t.demotions;
            sum.victimRefreshes += t.victimRefreshes;
            sum.crossings += t.crossings;
            escalations +=
                static_cast<double>(svc->overloadGovernor().escalations());
            for (service::GovernorStage st : svc->stageHistory())
                max_stage = std::max(
                    max_stage,
                    static_cast<double>(static_cast<unsigned>(st)));

            service::Memcond plain(bare_cfgs[k], specs);
            Scoped span(tracer, "service.run_no_snapshot", pass.id());
            const Clock::time_point b0 = Clock::now();
            plain.run();
            bare += secondsSince(b0);
            if (plain.digest() != svc->digest()) {
                ok = false;
                out.failures.push_back("snapshots changed the service's "
                                       "outputs");
            }
            std::remove(cfgs[k].snapshotPath.c_str());
        }
        ++out.attempted;
        out.failed += ok ? 0 : 1;
        ctor_s.push_back(ctor);
        run_s.push_back(run);
        bare_s.push_back(bare);
    });

    auto &L = out.perLayer;
    L["service.ctor_s"] = median(ctor_s);
    L["service.run_s"] = median(run_s);
    L["service.snapshot_s"] = median(run_s) - median(bare_s);
    L["service.generated"] = sum.generated;
    L["service.applied"] = sum.applied;
    L["service.drops_backpressure"] = sum.dropsBp;
    L["service.drops_shed"] = sum.dropsShed;
    L["service.throttled_ticks"] = sum.throttled;
    L["service.backlog_end"] = sum.backlog;
    L["service.escalations"] = escalations;
    L["service.max_stage"] = max_stage;
    L["service.loss_gap"] = sum.lossGap;
    L["core.om_tests_started"] = sum.testsStarted;
    L["core.om_abort_ratio"] = ratio(sum.testsAborted, sum.testsStarted);
    L["core.om_demotions"] = sum.demotions;
    L["core.om_victim_refreshes"] = sum.victimRefreshes;
    L["core.disturb_crossings"] = sum.crossings;
    L["trace.overhead"] = ratio(traced_segment_s.passSeconds(),
                                segment_s.passSeconds()) -
                          1.0;
    return out;
}

} // namespace perfbench
