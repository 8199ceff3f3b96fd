/**
 * @file
 * Ablation: memcond service-mode overload behavior.
 *
 * Sweeps tenant count x offered load (antagonist rate multiple) x
 * antagonist share over the always-on service host, plus a solo
 * reference point for the focus tenant. Each point is one full
 * deterministic service run; per point we record:
 *
 *   - the focus (in-quota, priority-2) tenant's emergent refresh
 *     reduction - compared against the solo point, quota-first
 *     admission plus offender-targeted governor stages should hold
 *     it within 5% of solo no matter the antagonist,
 *   - explicit-loss accounting: backpressure drops, shed drops,
 *     throttle time (never silent - the reconcile metric checks
 *     generated == applied + drops + backlog for every tenant and
 *     must be 0),
 *   - the governor ladder: escalation count and the highest stage
 *     reached.
 *
 * Emits BENCH_service_overload.json with the standard CRC footer.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "runner.hh"
#include "service/memcond.hh"

using namespace memcon;

namespace
{

service::MemcondConfig
serviceConfig(unsigned tenants, std::uint64_t seed, bool quick)
{
    service::MemcondConfig cfg;
    cfg.seed = seed;
    cfg.threads = 1; // the sweep runner parallelizes across points
    cfg.rounds = quick ? 12 : 32;
    cfg.roundTicks = usToTicks(20.0);

    // Oversubscribed on purpose: quotas sum to 8N but the budget is
    // 6N, so a hot antagonist pushes the governor all the way to
    // ShedTenants. Grants are capped at the quota, which makes the
    // focus tenant's service identical to its solo run by
    // construction (no leftover windfall to diverge on).
    cfg.admission.globalBudgetPerRound =
        std::max<std::uint64_t>(8, 6ull * tenants);
    cfg.admission.maxGrantPerRound = 8;

    cfg.tenant.geometry.rowsPerBank = 16; // 128 rows per tenant
    cfg.tenant.ringCapacity = 64;
    cfg.tenant.memcon.quantum = usToTicks(50.0);
    cfg.tenant.memcon.testIdle = usToTicks(20.0);
    cfg.tenant.memcon.retargetPeriod = usToTicks(25.0);
    cfg.tenant.memcon.testEngine.slots = 4;
    cfg.tenant.memcon.testEngine.wordsPerRow = 8;
    return cfg;
}

/**
 * N tenants: tenant 0 is the in-quota focus (priority 2), the last
 * `antagonists` are overload sources (priority 1, rateScale-times
 * their quota), the middle ones are polite fill.
 */
std::vector<service::TenantSpec>
tenantMix(unsigned tenants, unsigned antagonists, double antag_rate)
{
    std::vector<service::TenantSpec> specs;
    for (unsigned i = 0; i < tenants; ++i) {
        service::TenantSpec t;
        t.name = strprintf("t%u", i);
        t.quotaPerRound = 8;
        if (i >= tenants - antagonists) {
            t.priority = 1;
            t.rateScale = antag_rate;
        } else {
            t.priority = 2;
            t.rateScale = 1.0;
        }
        specs.push_back(t);
    }
    return specs;
}

bench::Metrics
runOne(unsigned tenants, unsigned antagonists, double antag_rate,
       std::uint64_t seed, bool quick)
{
    service::Memcond svc(serviceConfig(tenants, seed, quick),
                         tenantMix(tenants, antagonists, antag_rate));
    svc.run();

    double reconcile = 0.0;
    double offered = 0.0, applied = 0.0, antag_shed = 0.0;
    for (std::size_t i = 0; i < svc.tenantCount(); ++i) {
        const service::TenantSession &t = svc.tenant(i);
        const double backlog =
            static_cast<double>(t.ringBacklog()) +
            (t.hasHeldEvent() ? 1.0 : 0.0);
        const double gap =
            static_cast<double>(t.generatedCount()) -
            (static_cast<double>(t.appliedCount()) +
             static_cast<double>(t.droppedBackpressure()) +
             static_cast<double>(t.droppedShed()) + backlog);
        reconcile = std::max(reconcile, std::abs(gap));
        offered += static_cast<double>(t.generatedCount());
        applied += static_cast<double>(t.appliedCount());
        if (t.spec().priority == 1)
            antag_shed += static_cast<double>(t.droppedShed());
    }

    double max_stage = 0.0;
    for (service::GovernorStage s : svc.stageHistory())
        max_stage = std::max(max_stage,
                             static_cast<double>(
                                 static_cast<unsigned>(s)));

    const service::TenantSession &focus = svc.tenant(0);
    return bench::Metrics{
        {"reduction_t0", focus.memcon().emergentReduction()},
        {"lo_fraction_t0", focus.memcon().loRefFraction()},
        {"drops_bp_t0",
         static_cast<double>(focus.droppedBackpressure())},
        {"drops_shed_t0", static_cast<double>(focus.droppedShed())},
        {"throttle_ticks_t0",
         static_cast<double>(focus.throttledTicks())},
        {"p99_ingest_ticks_t0", focus.p99IngestTicks()},
        {"offered", offered},
        {"applied", applied},
        {"antag_shed", antag_shed},
        {"escalations",
         static_cast<double>(svc.overloadGovernor().escalations())},
        {"max_stage", max_stage},
        {"reconcile", reconcile},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("Ablation: memcond service overload",
                  "multi-tenant service mode under antagonist load");
    note("One service run per point: 128-row modules, 20 us rounds, "
         "8-event quotas, global budget 8 x tenants. Tenant 0 is the "
         "in-quota focus; antagonists offer rate x their quota.");

    struct Point
    {
        std::string label;
        unsigned tenants;
        unsigned antagonists;
        double rate;
    };
    std::vector<Point> points;
    points.push_back({"solo", 1, 0, 1.0});
    const std::vector<unsigned> tenant_counts =
        opts.quick ? std::vector<unsigned>{2} :
                     std::vector<unsigned>{2, 4};
    const std::vector<double> rates =
        opts.quick ? std::vector<double>{4.0} :
                     std::vector<double>{2.0, 4.0, 8.0};
    for (unsigned n : tenant_counts)
        for (double rate : rates) {
            points.push_back({strprintf("t%u/antag1_x%g", n, rate), n, 1,
                              rate});
            if (n >= 4)
                points.push_back({strprintf("t%u/antag%u_x%g", n, n / 2,
                                            rate),
                                  n, n / 2, rate});
        }

    bench::SweepRunner runner("service_overload", opts);
    // Every point runs the SAME service seed (not the per-task seed):
    // tenant 0's traffic is identical across points, so "vs solo"
    // isolates the co-location effect rather than seed noise.
    const std::uint64_t service_seed = opts.campaignSeed;
    for (const Point &p : points)
        runner.add(p.label, [p, service_seed](
                                const bench::TaskContext &ctx) {
            return runOne(p.tenants, p.antagonists, p.rate,
                          service_seed, ctx.quick);
        });
    runner.run();

    const double solo = runner.results()[0].metric("reduction_t0");
    TextTable t;
    t.header({"point", "t0 reduction", "vs solo", "t0 drops", "t0 thr",
              "antag shed", "escal", "max stage", "reconcile"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const bench::PointResult &r = runner.results()[i];
        const double red = r.metric("reduction_t0");
        const double delta = solo > 0.0 ? (red - solo) / solo : 0.0;
        t.row({points[i].label, TextTable::pct(red, 2),
               i == 0 ? "-" : TextTable::pct(delta, 2),
               TextTable::num(r.metric("drops_bp_t0") +
                                  r.metric("drops_shed_t0"),
                              0),
               TextTable::num(r.metric("throttle_ticks_t0"), 0),
               TextTable::num(r.metric("antag_shed"), 0),
               TextTable::num(r.metric("escalations"), 0),
               TextTable::num(r.metric("max_stage"), 0),
               TextTable::num(r.metric("reconcile"), 0)});
    }
    std::printf("%s", t.render().c_str());
    note("reconcile must be 0 everywhere: every offered event is "
         "applied, counted as an explicit drop, or still queued. The "
         "focus tenant's reduction stays within 5% of solo because "
         "admission is quota-first and the governor's scan/stretch "
         "stages target over-quota tenants only.");
    runner.finish();
    return 0;
}
