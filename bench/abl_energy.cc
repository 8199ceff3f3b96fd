/**
 * @file
 * Ablation: refresh energy by policy. The paper motivates MEMCON
 * with energy efficiency alongside performance; this bench converts
 * each policy's refresh-operation count into energy with the
 * IDD-based model and also reports simulator-measured whole-run
 * energy breakdowns at each chip density.
 */

#include "bench_util.hh"
#include "common/table.hh"
#include "core/engine.hh"
#include "core/policies.hh"
#include "dram/energy.hh"
#include "sim/system.hh"

using namespace memcon;

int
main()
{
    bench::banner("Ablation: energy",
                  "refresh energy by policy and density");

    // Part 1: per-row refresh energy over one Table 1 run.
    {
        auto timing =
            dram::TimingParams::ddr3_1600(dram::Density::Gb8, TimeMs{16.0});
        dram::EnergyModel em(dram::PowerParams::ddr3_1600(), timing);

        core::MemconEngine engine{core::MemconConfig{}};
        core::MemconResult r = engine.runOnApp(
            trace::AppPersona::byName("AdobePremiere"));

        double base_j = em.refreshEnergyFromOps(r.refreshOpsBaseline);
        double memcon_j = em.refreshEnergyFromOps(r.refreshOpsMemcon);
        double raidr_ops =
            r.refreshOpsBaseline *
            (1.0 - core::raidrPolicy(0.16, 16.0, 64.0, 16.0).reduction);
        double ideal_ops = r.refreshOpsBaseline * 0.25;

        TextTable t;
        t.header({"policy", "row-refresh ops", "energy (mJ)",
                  "vs baseline"});
        auto row = [&](const char *name, double ops) {
            double j = em.refreshEnergyFromOps(ops);
            t.row({name, TextTable::num(ops, 0),
                   TextTable::num(j * 1e3, 2),
                   TextTable::pct(j / base_j, 1)});
        };
        row("16 ms baseline", r.refreshOpsBaseline);
        row("RAIDR", raidr_ops);
        row("MEMCON", r.refreshOpsMemcon);
        row("64 ms ideal", ideal_ops);
        std::printf("%s", t.render().c_str());
        note(strprintf("MEMCON refresh energy: %.1f%% of baseline "
                       "(mirrors its %.1f%% op reduction)",
                       memcon_j / base_j * 100.0,
                       r.reduction() * 100.0));
    }

    // Part 2: whole-system energy from the cycle simulator.
    std::printf("\n");
    note("Cycle-simulator energy breakdown (mcf, 1 core, 300K insts):");
    TextTable t2;
    t2.header({"density", "policy", "act/pre(mJ)", "rd/wr(mJ)",
               "refresh(mJ)", "backgnd(mJ)", "total(mJ)"});
    for (dram::Density d : {dram::Density::Gb8, dram::Density::Gb32}) {
        for (double reduction : {0.0, 0.75}) {
            sim::SystemConfig cfg;
            cfg.cores = 1;
            cfg.density = d;
            cfg.refreshReduction = reduction;
            std::vector<trace::CpuPersona> mix{
                trace::CpuPersona::byName("mcf")};
            sim::System sys(cfg, mix);
            sim::RunResult r = sys.run(300000);

            auto timing = dram::TimingParams::ddr3_1600(d, TimeMs{16.0});
            dram::EnergyModel em(dram::PowerParams::ddr3_1600(),
                                 timing);
            auto e = em.fromControllerStats(
                sys.controller().channel().commandCounts(),
                sys.controller().stats().refresh, r.totalTicks, 0.6);
            t2.row({dram::toString(d),
                    reduction == 0.0 ? "16 ms baseline" : "MEMCON 75%",
                    TextTable::num(e.actPre * 1e3, 3),
                    TextTable::num((e.read + e.write) * 1e3, 3),
                    TextTable::num(e.refresh * 1e3, 3),
                    TextTable::num(e.background * 1e3, 3),
                    TextTable::num(e.total() * 1e3, 3)});
        }
    }
    std::printf("%s", t2.render().c_str());
    note("Refresh's energy share grows with density (tRFC), so "
         "MEMCON's savings grow with it too - same trend as Fig 15's "
         "performance.");
    return 0;
}
