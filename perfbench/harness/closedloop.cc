/**
 * @file
 * closedloop: a write-light two-core SimpleCore mix over one
 * MemoryController with OnlineMemcon attached, ticked as
 * abl_online_closedloop drives it. Each core's instruction window
 * bounds what it has outstanding, so the loop is closed in simulated
 * time. Loads controller scheduling and OnlineMemcon::tick on the
 * write/PRIL path; the engine's merge and wheel are bypassed.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench.hh"
#include "common/random.hh"
#include "core/online_memcon.hh"
#include "sim/core.hh"
#include "trace/cpu_gen.hh"

namespace perfbench
{

namespace
{

using namespace memcon;

/** Low-MPKI personas: rows idle long enough to reach LO-REF. */
const char *const kMix[] = {"perlbench", "h264ref"};
constexpr unsigned kCoreTicksPerDramTick = 5;
constexpr double kHorizonMs = 1.0;
/** Independent systems per pass (seeds derived from --seed): their
 * mean keeps the deterministic metrics steady across seeds. */
constexpr unsigned kSystems = 4;
/** Rigs build in microseconds: a set-up sample times 64 builds of
 * every system. */
constexpr unsigned kSetupBatch = 64;
/** Ticks per aggregated window span in the traced run. */
constexpr std::uint64_t kWindowTicks = 1 << 16;
constexpr std::size_t kWindowsPerSystem = 64; // > ticks / kWindowTicks

/** Hooks timing of the traced run (wrapped controller observers). */
struct HookTimes
{
    HotCounter write;
    HotCounter activate;
};

/** One closed-loop system; not movable (the controller's observers
 * capture `slot` by reference). */
struct Rig
{
    Rig(std::uint64_t seed, HookTimes *hooks)
    {
        geom.rowsPerBank = 256; // 2048 rows
        timing = dram::TimingParams::ddr3_1600(dram::Density::Gb8,
                                               TimeMs{16.0});
        sim::ControllerConfig mc_cfg;
        core::OnlineMemcon::installObserver(mc_cfg, slot);
        if (hooks != nullptr) {
            mc_cfg.writeObserver = timed(mc_cfg.writeObserver, &hooks->write);
            mc_cfg.activateObserver =
                timed(mc_cfg.activateObserver, &hooks->activate);
        }
        mc = std::make_unique<sim::MemoryController>(geom, timing, mc_cfg);

        core::OnlineMemconConfig om_cfg;
        om_cfg.quantum = usToTicks(20.0);
        om_cfg.testIdle = usToTicks(10.0);
        om_cfg.retargetPeriod = usToTicks(10.0);
        om_cfg.testEngine.slots = 64;
        om_cfg.testEngine.wordsPerRow = 64;
        om = std::make_unique<core::OnlineMemcon>(geom, *mc, om_cfg);
        slot = om.get();

        const std::uint64_t blocks = geom.totalBlocks();
        for (std::size_t i = 0; i < std::size(kMix); ++i) {
            trace::CpuAccessStream stream(trace::CpuPersona::byName(kMix[i]),
                                          deriveTaskSeed(seed, i));
            cores.push_back(std::make_unique<sim::SimpleCore>(
                static_cast<int>(i), std::move(stream), *mc,
                i * blocks / std::size(kMix), blocks));
        }
    }
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    static std::function<void(std::uint64_t, Tick)>
    timed(std::function<void(std::uint64_t, Tick)> inner, HotCounter *c)
    {
        return [inner = std::move(inner), c](std::uint64_t addr, Tick now) {
            const Clock::time_point t0 = Clock::now();
            inner(addr, now);
            c->add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0)
                       .count());
        };
    }

    dram::Geometry geom;
    dram::TimingParams timing;
    core::OnlineMemcon *slot = nullptr;
    std::unique_ptr<sim::MemoryController> mc;
    std::unique_ptr<core::OnlineMemcon> om;
    std::vector<std::unique_ptr<sim::SimpleCore>> cores;
};

/** Per-window busy time of the three per-tick calls. */
struct TickTimes
{
    std::int64_t mcNs = 0, omNs = 0, coreNs = 0;
    std::uint64_t ticks = 0;
    double readDepth = 0.0, writeDepth = 0.0;
};

std::int64_t
lap(Clock::time_point &t)
{
    const Clock::time_point now = Clock::now();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - t).count();
    t = now;
    return ns;
}

/**
 * Advance the rig to the horizon; returns DRAM ticks simulated.
 * Every window of kWindowTicks ticks is one unit of `windows`,
 * numbered from unit0 (many short units keep the estimate steady on a
 * noisy host). Traced, every window also becomes one span per call.
 */
std::uint64_t
drive(Rig &rig, Tracer *tracer, HookTimes *hooks, int parent,
      TickTimes *total, UnitTimes *windows = nullptr,
      std::size_t unit0 = 0)
{
    const Tick horizon = msToTicks(kHorizonMs);
    Tick now{};
    std::uint64_t ticks = 0;
    if (tracer == nullptr) {
        Clock::time_point w0 = Clock::now();
        std::size_t unit = unit0;
        while (now < horizon) {
            now += rig.timing.tCk;
            rig.mc->tick(now);
            rig.om->tick(now);
            for (auto &c : rig.cores)
                for (unsigned k = 0; k < kCoreTicksPerDramTick; ++k)
                    c->tick(now);
            if (++ticks % kWindowTicks == 0 || !(now < horizon)) {
                if (windows != nullptr)
                    windows->add(unit++, secondsSince(w0));
                w0 = Clock::now();
            }
        }
        return ticks;
    }

    TickTimes win;
    std::int64_t win_start = tracer->nowNs();
    std::int64_t w0 = hooks->write.busyNs, a0 = hooks->activate.busyNs;
    std::uint64_t wc0 = hooks->write.calls, ac0 = hooks->activate.calls;
    std::size_t unit = unit0;
    auto flush = [&] {
        const std::int64_t end = tracer->nowNs();
        if (windows != nullptr)
            windows->add(unit++, static_cast<double>(end - win_start) * 1e-9);
        const int mc_span = tracer->record("sim.mc_tick", parent, win_start,
                                           end, win.ticks, win.mcNs);
        tracer->record("core.observe_write", mc_span, win_start, end,
                       hooks->write.calls - wc0, hooks->write.busyNs - w0);
        tracer->record("core.observe_activate", mc_span, win_start, end,
                       hooks->activate.calls - ac0,
                       hooks->activate.busyNs - a0);
        tracer->record("core.om_tick", parent, win_start, end, win.ticks,
                       win.omNs);
        tracer->record("sim.core_tick", parent, win_start, end,
                       win.ticks * rig.cores.size() * kCoreTicksPerDramTick,
                       win.coreNs);
        total->mcNs += win.mcNs;
        total->omNs += win.omNs;
        total->coreNs += win.coreNs;
        total->ticks += win.ticks;
        total->readDepth += win.readDepth;
        total->writeDepth += win.writeDepth;
        win = TickTimes{};
        win_start = end;
        w0 = hooks->write.busyNs;
        a0 = hooks->activate.busyNs;
        wc0 = hooks->write.calls;
        ac0 = hooks->activate.calls;
    };
    while (now < horizon) {
        now += rig.timing.tCk;
        Clock::time_point t = Clock::now();
        rig.mc->tick(now);
        win.mcNs += lap(t);
        rig.om->tick(now);
        win.omNs += lap(t);
        for (auto &c : rig.cores)
            for (unsigned k = 0; k < kCoreTicksPerDramTick; ++k)
                c->tick(now);
        win.coreNs += lap(t);
        win.readDepth += static_cast<double>(rig.mc->readQueueSize());
        win.writeDepth += static_cast<double>(rig.mc->writeQueueSize());
        ++win.ticks;
        ++ticks;
        if (win.ticks == kWindowTicks)
            flush();
    }
    if (win.ticks != 0)
        flush();
    return ticks;
}

std::string
digestOf(const Rig &rig)
{
    std::string d;
    char buf[160];
    for (const auto &c : rig.cores) {
        std::snprintf(buf, sizeof buf, "ipc=%.17g ", c->ipc());
        d += buf;
    }
    const core::OnlineMemcon &om = *rig.om;
    std::snprintf(buf, sizeof buf,
                  "red=%.17g tests=%llu/%llu/%llu/%llu w=%llu dem=%llu "
                  "ref=%.17g",
                  om.emergentReduction(),
                  static_cast<unsigned long long>(om.testsStarted()),
                  static_cast<unsigned long long>(om.testsPassed()),
                  static_cast<unsigned long long>(om.testsFailed()),
                  static_cast<unsigned long long>(om.testsAborted()),
                  static_cast<unsigned long long>(om.writesObserved()),
                  static_cast<unsigned long long>(om.demotions()),
                  rig.mc->stats().value("refresh"));
    return d + buf;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

Outcome
runClosedLoop(const Args &args, Tracer &tracer)
{
    Outcome out;
    pinToCurrentCpu();
    std::vector<std::uint64_t> seeds;
    for (unsigned k = 0; k < kSystems; ++k)
        seeds.push_back(deriveTaskSeed(args.seed, k));

    // Set-up: controller, OnlineMemcon, cores and their streams of
    // every system, sampled before every untraced system run.
    std::vector<double> setup;
    auto sample_setup = [&] {
        sampleSetup(setup, 1, kSetupBatch, [&] {
            for (std::uint64_t seed : seeds)
                Rig rig(seed, nullptr);
        });
    };

    // Each pass runs every system once; its outputs must repeat.
    std::vector<std::string> first_digest(kSystems);
    auto check_system = [&](unsigned k, const Rig &rig) {
        bool ok = true;
        const std::string d = digestOf(rig);
        if (first_digest[k].empty())
            first_digest[k] = d;
        if (d != first_digest[k]) {
            ok = false;
            out.failures.push_back("deterministic outputs differ between "
                                   "passes of one seed:\n  " +
                                   first_digest[k] + "\nvs\n  " + d);
        }
        // A pinned row is never at LO-REF.
        std::uint64_t both = 0;
        for (std::uint64_t r = 0; r < rig.geom.totalRows(); ++r)
            both += rig.om->isLoRef(RowId{r}) && rig.om->isPinned(RowId{r});
        if (both != 0) {
            ok = false;
            out.failures.push_back(std::to_string(both) +
                                   " rows are both LO-REF and pinned");
        }
        return ok;
    };

    UnitTimes windows;
    double red = 0.0, ipc = 0.0, ticks = 0.0;
    const double untraced_budget =
        args.trace ? args.seconds * 0.5 : args.seconds;
    timedPasses(untraced_budget, 2, [&] {
        bool ok = true;
        red = ipc = ticks = 0.0;
        for (unsigned k = 0; k < kSystems; ++k) {
            sample_setup();
            Rig rig(seeds[k], nullptr);
            ticks += static_cast<double>(drive(rig, nullptr, nullptr, -1,
                                               nullptr, &windows,
                                               k * kWindowsPerSystem));
            ok &= check_system(k, rig);
            red += rig.om->emergentReduction() / kSystems;
            for (const auto &c : rig.cores)
                ipc += c->ipc() / kSystems;
        }
        ++out.attempted;
        out.failed += ok ? 0 : 1;
    });
    out.check(red > 0.0, "refresh_reduction is not positive: every row "
                         "stayed at HI-REF");
    const double untraced_rate = ticks / windows.passSeconds();
    windows.saveTo(out);

    out.endToEnd["setup_s"] = {fastest(setup), "s"};
    out.samples["setup_s"] = setup;
    out.endToEnd["sim_cycles_per_s"] = {untraced_rate, "cycles/s"};
    out.endToEnd["engine_events_per_s"] = {1.0, "events/s", false};
    out.endToEnd["service_events_per_s"] = {1.0, "events/s", false};
    out.endToEnd["refresh_reduction"] = {red, "fraction"};
    out.endToEnd["ipc_sum"] = {ipc, "IPC"};
    out.endToEnd["lo_coverage"] = {1.0, "fraction", false};
    out.endToEnd["test_overhead"] = {1.0, "fraction", false};
    out.endToEnd["drop_ratio"] = {1.0, "fraction", false};

    if (!args.trace)
        return out;

    // Traced passes: wrapped observers, per-tick call timing folded
    // into one span per call and window. Counters sum over systems.
    UnitTimes traced_windows;
    std::vector<double> mc_s, om_s, core_s, ow_s, oa_s;
    TickTimes total;
    HookTimes hooks;
    double tests = 0, aborts = 0, demotions = 0, victims = 0, refreshes = 0,
           insts = 0;
    timedPasses(args.seconds * 0.5, 1, [&] {
        hooks.write.reset();
        hooks.activate.reset();
        total = TickTimes{};
        tests = aborts = demotions = victims = refreshes = insts = 0;
        Scoped pass(tracer, "pass");
        bool ok = true;
        for (unsigned k = 0; k < kSystems; ++k) {
            Rig rig(seeds[k], &hooks);
            drive(rig, &tracer, &hooks, pass.id(), &total, &traced_windows,
                  k * kWindowsPerSystem);
            ok &= check_system(k, rig);
            const core::OnlineMemcon &om = *rig.om;
            tests += static_cast<double>(om.testsStarted());
            aborts += static_cast<double>(om.testsAborted());
            demotions += static_cast<double>(om.demotions());
            victims += static_cast<double>(om.victimRefreshes());
            refreshes += rig.mc->stats().value("refresh");
            for (const auto &c : rig.cores)
                insts += static_cast<double>(c->retiredInsts());
        }
        ++out.attempted;
        out.failed += ok ? 0 : 1;
        mc_s.push_back(static_cast<double>(total.mcNs) * 1e-9);
        om_s.push_back(static_cast<double>(total.omNs) * 1e-9);
        core_s.push_back(static_cast<double>(total.coreNs) * 1e-9);
        ow_s.push_back(hooks.write.seconds());
        oa_s.push_back(hooks.activate.seconds());
    });

    auto &L = out.perLayer;
    L["core.om_tick_s"] = median(om_s);
    L["core.observe_write_s"] = median(ow_s);
    L["core.observe_write_calls"] =
        static_cast<double>(hooks.write.calls.load());
    L["core.observe_activate_s"] = median(oa_s);
    L["core.observe_activate_calls"] =
        static_cast<double>(hooks.activate.calls.load());
    L["core.om_tests_started"] = tests;
    L["core.om_abort_ratio"] = ratio(aborts, tests);
    L["core.om_demotions"] = demotions;
    L["core.om_victim_refreshes"] = victims;
    L["sim.mc_tick_s"] = median(mc_s);
    L["sim.core_tick_s"] = median(core_s);
    L["sim.read_queue_depth_mean"] =
        ratio(total.readDepth, static_cast<double>(total.ticks));
    L["sim.write_queue_depth_mean"] =
        ratio(total.writeDepth, static_cast<double>(total.ticks));
    L["sim.refreshes"] = refreshes;
    L["sim.retired_insts"] = insts;
    L["trace.overhead"] =
        ratio(traced_windows.passSeconds(), windows.passSeconds()) - 1.0;
    return out;
}

} // namespace perfbench
