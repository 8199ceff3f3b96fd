/**
 * @file
 * Hot-path microbench for the MEMCON engine: the streaming k-way
 * merge + deadline-wheel engine priced against the seed
 * materialize-then-sort + scan engine (the test oracle
 * oracle::runReferenceEngine, tests/oracle/reference_engine.hh) on
 * the same synthetic traces. Emits BENCH_micro_engine_ops.json so
 * the events/sec, per-quantum cost, and peak-memory trajectory of the
 * engine is tracked across revisions.
 *
 * Every metric in the digest is a deterministic counter (writes,
 * quanta, heap pushes, wheel pops, estimated peak event bytes);
 * wall-clock enters only through the runner's per-point wall_seconds
 * (median across --repeat), which stays outside the digest, so
 * --repeat N never trips the repeat-invariance check.
 *
 * Run with --repeat 5 when comparing numbers across PRs.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "core/engine.hh"
#include "oracle/reference_engine.hh"
#include "runner.hh"
#include "trace/app_model.hh"

using namespace memcon;
using namespace memcon::core;

namespace
{

/**
 * A 100k-page synthetic trace: every page gets one write at a
 * hash-derived time, so the event stream is maximally wide (many
 * pages) and shallow (one event per page) - the regime where the
 * reference path's per-quantum full page scan and O(W) event
 * materialization dominate.
 */
std::vector<std::vector<TimeMs>>
syntheticTrace(std::uint64_t seed, std::size_t pages, double duration_ms)
{
    std::vector<std::vector<TimeMs>> writes(pages);
    for (std::size_t p = 0; p < pages; ++p) {
        Rng rng(deriveTaskSeed(seed, p));
        writes[p].push_back(TimeMs{rng.uniform(0.0, duration_ms)});
    }
    return writes;
}

/** The deterministic counters every point reports. */
bench::Metrics
counters(const MemconConfig &cfg, bool reference, const MemconResult &r)
{
    double quanta =
        r.durationMs > 0.0 ? r.durationMs / cfg.quantumMs.value() : 0.0;
    // Peak resident estimate of the event plumbing: the reference
    // path holds every event (16-byte {time, page}); the streaming
    // path holds one 16-byte wheel entry per concurrently live stream
    // plus its largest staged batch - 16-byte events, as many again
    // of sort scratch, and a 4-byte bucket index per event.
    double event_bytes =
        reference
            ? static_cast<double>(r.writes) * 16.0
            : static_cast<double>(r.peakLiveStreams) * 16.0 +
                  static_cast<double>(r.peakStagedEvents) * 36.0;
    return bench::Metrics{
        {"writes", static_cast<double>(r.writes)},
        {"quanta", quanta},
        {"tests_run", static_cast<double>(r.testsRun)},
        {"scrub_tests", static_cast<double>(r.scrubTests)},
        {"heap_pushes", static_cast<double>(r.heapPushes)},
        {"wheel_pops", static_cast<double>(r.wheelPops)},
        {"peak_live_streams", static_cast<double>(r.peakLiveStreams)},
        {"est_peak_event_bytes", event_bytes},
    };
}

/** One replay of explicit write vectors on either path. */
MemconResult
replay(const MemconConfig &cfg, bool reference,
       const std::vector<std::vector<TimeMs>> &trace, double duration_ms)
{
    return reference ? oracle::runReferenceEngine(cfg, trace, duration_ms)
                     : MemconEngine(cfg).run(trace, duration_ms);
}

MemconConfig
scrubbyConfig()
{
    MemconConfig cfg;
    cfg.quantumMs = TimeMs{64.0};
    // Budget and period chosen so the steady-state scrub demand
    // (~pages / scrub_epochs per quantum) fits inside the test
    // budget: the wheel then stays O(due) per quantum instead of
    // churning a budget-starved backlog (which degrades to the
    // reference path's O(pages) - the regime the seed engine is in
    // at every quantum regardless).
    cfg.testSlotsPer64ms = 4096;
    cfg.scrubPeriodMs = 16384.0;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::SweepOptions opts = bench::parseSweepArgs(argc, argv);
    bench::banner("micro_engine_ops",
                  "streaming engine vs reference event path");
    note("Same traces, bit-identical metrics; only the wall clock and "
         "the event-plumbing counters differ between the paths.");
    note(strprintf("kernel set: %s%s (MEMCON_FORCE_SCALAR pins scalar)",
                   simd::activeKernelSetName(),
                   simd::scalarForced() ? " [forced]" : ""));

    const std::size_t pages = 100000; // the acceptance-bar trace width
    const double duration_ms = opts.quick ? 20000.0 : 60000.0;
    const std::size_t scale_pages = pages / 4;

    bench::SweepRunner runner("micro_engine_ops", opts);

    // Both paths of a pair replay the SAME pre-generated trace
    // (shared seed, built outside the timed lambdas), so the wall
    // clock prices only the engine and the metric counters differ
    // only in the plumbing columns.
    const std::uint64_t trace_seed = deriveTaskSeed(opts.campaignSeed, 0);
    const auto trace_full = syntheticTrace(trace_seed, pages, duration_ms);
    const auto trace_quarter =
        syntheticTrace(trace_seed, scale_pages, duration_ms);

    // (a) headline: full mechanism (PRIL + scrub) on 100k pages.
    for (bool reference : {true, false}) {
        runner.add(
            std::string("headline/") + (reference ? "ref" : "stream"),
            [&trace_full, duration_ms,
             reference](const bench::TaskContext &) {
                MemconConfig cfg = scrubbyConfig();
                return counters(cfg, reference,
                                replay(cfg, reference, trace_full,
                                       duration_ms));
            });
    }

    // (b) merge only: scrub off, long quantum - prices the k-way
    // merge against materialize+stable_sort with no scan advantage.
    for (bool reference : {true, false}) {
        runner.add(
            std::string("merge_only/") + (reference ? "ref" : "stream"),
            [&trace_full, duration_ms,
             reference](const bench::TaskContext &) {
                MemconConfig cfg;
                cfg.quantumMs = TimeMs{1024.0};
                return counters(cfg, reference,
                                replay(cfg, reference, trace_full,
                                       duration_ms));
            });
    }

    // (c) scrub scaling: same config at pages/4 - per-quantum cost
    // should scale with page count on the reference path only.
    for (bool reference : {true, false}) {
        runner.add(
            std::string("scaled_down/") + (reference ? "ref" : "stream"),
            [&trace_quarter, duration_ms,
             reference](const bench::TaskContext &) {
                MemconConfig cfg = scrubbyConfig();
                return counters(cfg, reference,
                                replay(cfg, reference, trace_quarter,
                                       duration_ms));
            });
    }

    // (d) runOnApp: generator streaming vs full materialization.
    for (bool reference : {true, false}) {
        runner.add(
            std::string("app/") + (reference ? "ref" : "stream"),
            [=](const bench::TaskContext &) {
                trace::AppPersona persona =
                    trace::AppPersona::table1Suite()[0];
                persona.seed = trace_seed;
                if (opts.quick) {
                    persona.pages = 4000;
                    persona.durationSec = 60.0;
                }
                MemconConfig cfg;
                return counters(
                    cfg, reference,
                    reference ? oracle::runReferenceOnApp(cfg, persona)
                              : MemconEngine(cfg).runOnApp(persona));
            });
    }

    const std::vector<bench::PointResult> &results = runner.run();

    TextTable table;
    table.header({"scenario", "path", "events", "events/sec",
                  "ns/quantum", "est peak event MB"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const bench::PointResult &r = results[i];
        double wall = runner.pointWallSeconds(i);
        double events = r.metric("writes");
        double quanta = r.metric("quanta");
        std::string scenario = r.label.substr(0, r.label.find('/'));
        std::string path = r.label.substr(r.label.find('/') + 1);
        table.row({scenario, path,
                   TextTable::num(events, 0),
                   wall > 0.0 ? TextTable::num(events / wall, 0) : "-",
                   quanta > 0.0
                       ? TextTable::num(wall * 1e9 / quanta, 0)
                       : "-",
                   TextTable::num(
                       r.metric("est_peak_event_bytes") / 1048576.0,
                       2)});
    }
    std::printf("%s", table.render().c_str());

    // The acceptance bars: the streaming path must clear 4x the
    // reference path's events/sec on the 100k-page headline trace and
    // 1.5x on the scan-free merge_only pair (ISSUE 9).
    double wall_ref = runner.pointWallSeconds(0);
    double wall_stream = runner.pointWallSeconds(1);
    if (wall_stream > 0.0)
        note(strprintf("headline speedup: %.2fx events/sec over the "
                       "reference path (target >= 4x)",
                       wall_ref / wall_stream));
    double wall_merge_ref = runner.pointWallSeconds(2);
    double wall_merge_stream = runner.pointWallSeconds(3);
    if (wall_merge_stream > 0.0)
        note(strprintf("merge_only speedup: %.2fx events/sec over the "
                       "reference path (target >= 1.5x)",
                       wall_merge_ref / wall_merge_stream));
    double q_full = runner.pointWallSeconds(0) / results[0].metric("quanta");
    double q_quarter =
        runner.pointWallSeconds(4) / results[4].metric("quanta");
    note(strprintf("reference per-quantum cost at 100k vs 25k pages: "
                   "%.0f ns vs %.0f ns (scan scales with pages)",
                   q_full * 1e9, q_quarter * 1e9));
    note(strprintf(
        "streaming per-quantum cost at 100k vs 25k pages: "
        "%.0f ns vs %.0f ns (wheel scales with due entries)",
        runner.pointWallSeconds(1) * 1e9 / results[1].metric("quanta"),
        runner.pointWallSeconds(5) * 1e9 / results[5].metric("quanta")));
    runner.finish();
    return 0;
}
