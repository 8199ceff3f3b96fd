/**
 * @file
 * campaign_flat and campaign_sharded: Table-1 personas replayed
 * through MemconEngine::runOnApp with re-scrub and a failure-model
 * oracle, as every figure bench drives the engine.
 *
 * Flat runs the identity map on one thread, sized so the per-page
 * state of one shard exceeds a core's L2. Sharded runs the same
 * personas on the zen-ddr4-64bank map with min(4, nproc) shard
 * threads, which brings in the thread pool and the shard reduction;
 * a shardThreads = 1 pass at the end must reproduce the same bits.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>

#include "bench.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "dram/address_map.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "trace/app_model.hh"

namespace perfbench
{

namespace
{

using namespace memcon;

/**
 * Two Table-1 personas at their full Table-1 length: a cold-tailed,
 * scrub-heavy stream (229.4 s) and a write-heavy image pipeline
 * (93.4 s). The figure benches replay them at 2048 pages; here each
 * has 8x the pages, so one shard's page state outgrows a core's L2,
 * and 8x the test budget and write buffer, so each page gets the
 * figure benches' share of both. Their refresh reduction then
 * matches fig14's (0.71 and 0.66 at 2048 pages), with no test
 * deferred and no buffer drop.
 */
const char *const kPersonas[] = {"Netflix", "BlurMotion"};
constexpr std::uint64_t kPageScale = 8;
constexpr std::uint64_t kOracleRows = 1 << 16;
/** On the identity map, a persona run is timed in segments of this
 * many oracle queries (about 25 ms each): the engine is deterministic,
 * so segment i holds the same work in every pass. */
constexpr std::uint64_t kSegmentCalls = 16384;

/** Everything a pass needs; built (and timed) in set-up. */
struct Inputs
{
    std::vector<trace::AppPersona> personas;
    std::unique_ptr<failure::FailureModel> model;
    failure::ContentPersona content;
    core::MemconConfig cfg;
};

Inputs
buildInputs(std::uint64_t seed, bool sharded)
{
    Inputs in;
    for (std::size_t i = 0; i < std::size(kPersonas); ++i) {
        trace::AppPersona p = trace::AppPersona::byName(kPersonas[i]);
        p.seed = deriveTaskSeed(seed, i);
        p.pages *= kPageScale;
        in.personas.push_back(p);
    }
    failure::FailureModelParams fm;
    fm.nominalIntervalMs = 64.0;
    fm.seed = deriveTaskSeed(seed, 100);
    in.model = std::make_unique<failure::FailureModel>(fm, kOracleRows,
                                                       1 << 16);
    // Populate every row's cell population now: afterwards the
    // model's lazy cache is only read, so shard workers may query it
    // concurrently.
    for (std::uint64_t r = 0; r < kOracleRows; ++r)
        (void)in.model->cellsOfRow(RowId{r});
    in.content = failure::ContentPersona::byName("gcc");

    in.cfg.quantumMs = TimeMs{512.0};
    in.cfg.testSlotsPer64ms *= kPageScale;
    in.cfg.writeBufferCapacity *= kPageScale;
    in.cfg.scrubPeriodMs = 2048.0;
    if (sharded)
        in.cfg.addressMap = dram::AddressMap::preset("zen-ddr4-64bank");
    return in;
}

/** The deterministic outputs of one persona run, bit-exact. */
std::string
digestLine(const core::MemconResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "w=%llu t=%llu p=%llu f=%llu c=%llu s=%llu sd=%llu "
                  "red=%.17g cov=%.17g ovh=%.17g",
                  static_cast<unsigned long long>(r.writes),
                  static_cast<unsigned long long>(r.testsRun),
                  static_cast<unsigned long long>(r.testsPassed),
                  static_cast<unsigned long long>(r.testsFailed),
                  static_cast<unsigned long long>(r.testsCorrect),
                  static_cast<unsigned long long>(r.scrubTests),
                  static_cast<unsigned long long>(r.scrubDemotions),
                  r.reduction(), r.loCoverage(),
                  r.testTimeOverBaselineRefresh());
    return buf;
}

/** Totals of one pass over every persona. */
struct PassResult
{
    std::vector<core::MemconResult> runs;
    std::vector<double> seconds; //!< each runOnApp's host time
    double engineSeconds = 0.0;  //!< their sum
    /** Identity map, untraced: each runOnApp's segments, in order. */
    std::vector<std::vector<double>> segments;
    std::string digest;

    std::uint64_t writes() const
    {
        std::uint64_t w = 0;
        for (const auto &r : runs)
            w += r.writes;
        return w;
    }
};

/**
 * Oracle-side bookkeeping of the traced run: times every oracle
 * query and remembers each (page, write_count) that passed, so the
 * transition observer can check the reliability invariant - a page
 * moves to LO-REF only after passing a test of its current content.
 */
struct InvariantProbe
{
    HotCounter oracle;
    std::atomic<std::uint64_t> fails{0};
    std::atomic<std::uint64_t> loTransitions{0};
    std::atomic<std::uint64_t> loWithoutPass{0};

    struct PairHash
    {
        std::size_t operator()(
            const std::pair<std::uint64_t, std::uint64_t> &k) const
        {
            return hashMix64(k.first * 0x9e3779b97f4a7c15ULL ^ k.second);
        }
    };
    std::mutex mu;
    // Passing (page, write_count) queries of the current persona run.
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, PairHash>
        passed; // guarded by mu

    void notePass(std::uint64_t page, std::uint64_t wc)
    {
        std::lock_guard<std::mutex> g(mu);
        passed.emplace(page, wc);
    }
    bool hadPass(std::uint64_t page, std::uint64_t wc)
    {
        std::lock_guard<std::mutex> g(mu);
        return passed.count({page, wc}) != 0;
    }
    void clearRun()
    {
        std::lock_guard<std::mutex> g(mu);
        passed.clear();
    }
};

/** One run of every persona. `before_each`, if set, is called before
 * each persona's run and may rebuild `in`. */
PassResult
runPass(const Inputs &in, unsigned threads, Tracer *tracer,
        InvariantProbe *probe, int parent,
        const std::function<void()> &before_each = nullptr)
{
    core::MemconConfig cfg = in.cfg;
    cfg.shardThreads = threads;
    const core::MemconEngine engine(cfg);
    const double lo_ms = cfg.loRefMs;
    // The engine accepts a transition observer on the identity map
    // only, so a sharded run times its oracle unobserved. There, too,
    // oracle queries arrive from the shard threads in no fixed order,
    // so only identity-map runs are timed in segments.
    const bool observed = cfg.addressMap.numShards() == 1;

    auto plain = [&](std::uint64_t page, std::uint64_t wc) {
        const failure::ProgramContent data(in.content, wc);
        return in.model->logicalRowFails(
            RowId{page % in.model->numRows()}, data, lo_ms);
    };

    PassResult out;
    for (std::size_t i = 0; i < in.personas.size(); ++i) {
        if (before_each)
            before_each();
        const trace::AppPersona &p = in.personas[i];
        core::MemconResult r;
        const Clock::time_point t0 = Clock::now();
        if (probe == nullptr && observed) {
            std::vector<double> seg;
            std::uint64_t calls = 0;
            Clock::time_point s0 = t0;
            auto segmented = [&](std::uint64_t page, std::uint64_t wc) {
                if (++calls % kSegmentCalls == 0) {
                    const Clock::time_point now = Clock::now();
                    seg.push_back(
                        std::chrono::duration<double>(now - s0).count());
                    s0 = now;
                }
                return plain(page, wc);
            };
            r = engine.runOnApp(p, segmented);
            seg.push_back(secondsSince(s0));
            out.segments.push_back(std::move(seg));
        } else if (probe == nullptr) {
            r = engine.runOnApp(p, plain);
        } else {
            probe->clearRun();
            auto traced = [&](std::uint64_t page, std::uint64_t wc) {
                const Clock::time_point c0 = Clock::now();
                const bool fails = plain(page, wc);
                probe->oracle.add(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - c0)
                        .count());
                if (fails)
                    probe->fails.fetch_add(1, std::memory_order_relaxed);
                else if (observed)
                    probe->notePass(page, wc);
                return fails;
            };
            auto observer = [&](std::uint64_t page, double, bool to_lo,
                                std::uint64_t wc) {
                if (!to_lo)
                    return;
                probe->loTransitions.fetch_add(1, std::memory_order_relaxed);
                if (!probe->hadPass(page, wc))
                    probe->loWithoutPass.fetch_add(
                        1, std::memory_order_relaxed);
            };
            const std::int64_t o_busy0 = probe->oracle.busyNs.load();
            const std::uint64_t o_calls0 = probe->oracle.calls.load();
            Scoped span(*tracer, "core.engine_run", parent);
            const std::int64_t s0 = tracer->nowNs();
            r = observed ? engine.runOnApp(p, traced, observer)
                         : engine.runOnApp(p, traced);
            tracer->record("failure.oracle", span.id(), s0, tracer->nowNs(),
                           probe->oracle.calls.load() - o_calls0,
                           probe->oracle.busyNs.load() - o_busy0);
        }
        out.seconds.push_back(secondsSince(t0));
        out.engineSeconds += out.seconds.back();
        out.digest += p.name + " " + digestLine(r) + "\n";
        out.runs.push_back(std::move(r));
    }
    return out;
}

/** Drive PageWriteStream::next over every page of every persona:
 * the generation share of runOnApp, timed on its own. */
std::uint64_t
generateAll(const Inputs &in, Tracer &tracer, int parent)
{
    std::uint64_t events = 0;
    for (const trace::AppPersona &p : in.personas) {
        Scoped span(tracer, "trace.gen", parent);
        for (std::uint64_t page = 0; page < p.pages; ++page) {
            trace::PageWriteStream s(p, page);
            double t = 0.0;
            while (s.next(t))
                ++events;
        }
    }
    return events;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

Outcome
runCampaign(const Args &args, Tracer &tracer, bool sharded)
{
    Outcome out;
    if (!sharded)
        pinToCurrentCpu();
    const unsigned threads =
        sharded ? std::max(1u, std::min(4u, std::thread::hardware_concurrency()))
                : 1u;

    // Set-up: personas, the failure model (fully populated) and the
    // engine configuration, about 10 ms a build. The inputs are
    // rebuilt, and timed, before every untraced persona run; every
    // build is identical, so the pass outputs do not change.
    Inputs in = buildInputs(args.seed, sharded);
    std::vector<double> setup;
    const std::function<void()> rebuild = [&] {
        sampleSetup(setup, 2, 1,
                    [&] { in = buildInputs(args.seed, sharded); });
    };

    std::string first_digest;
    UnitTimes persona_s; // one unit per persona's runOnApp
    UnitTimes segment_s; // identity map: one unit per persona segment
    std::vector<double> rates;
    auto check_digest = [&](const PassResult &r) {
        ++out.attempted;
        if (first_digest.empty())
            first_digest = r.digest;
        if (r.digest != first_digest) {
            ++out.failed;
            out.failures.push_back(
                "deterministic outputs differ between passes of one "
                "seed:\n" +
                first_digest + "vs\n" + r.digest);
        }
    };

    const double untraced_budget =
        args.trace ? args.seconds * 0.5 : args.seconds;
    PassResult last;
    timedPasses(untraced_budget, 2, [&] {
        last = runPass(in, threads, nullptr, nullptr, -1, rebuild);
        check_digest(last);
        rates.push_back(static_cast<double>(last.writes()) /
                        last.engineSeconds);
        for (std::size_t p = 0; p < last.seconds.size(); ++p)
            persona_s.add(p, last.seconds[p]);
        std::size_t unit = 0;
        for (const auto &seg : last.segments)
            for (double s : seg)
                segment_s.add(unit++, s);
    });
    const double pass_s = persona_s.passSeconds();
    const UnitTimes &rate_units = sharded ? persona_s : segment_s;
    rate_units.saveTo(out);
    const double untraced_rate =
        static_cast<double>(last.writes()) / rate_units.passSeconds();

    out.endToEnd["setup_s"] = {fastest(setup), "s"};
    double red = 0.0, cov = 0.0, ovh = 0.0;
    {
        // Pass-level deterministic metrics: refresh operations and
        // page-time pooled over personas, so each is one ratio.
        double base = 0.0, mem = 0.0, lo = 0.0, hi = 0.0, tt = 0.0,
               rb = 0.0;
        for (const auto &r : last.runs) {
            base += r.refreshOpsBaseline;
            mem += r.refreshOpsMemcon;
            lo += r.loTimeMs;
            hi += r.hiTimeMs;
            tt += r.testTimeNs;
            rb += r.refreshTimeBaselineNs;
        }
        red = 1.0 - ratio(mem, base);
        cov = ratio(lo, lo + hi);
        ovh = ratio(tt, rb);
    }
    out.check(red > 0.0, "refresh_reduction is not positive");

    // Thread-count invariance: one shardThreads = 1 pass must
    // reproduce the N-thread bits (flat already runs at 1).
    double t1_seconds = 0.0;
    if (sharded) {
        const PassResult t1 = runPass(in, 1, nullptr, nullptr, -1);
        t1_seconds = t1.engineSeconds;
        ++out.attempted;
        if (t1.digest != first_digest) {
            ++out.failed;
            out.failures.push_back(
                "shardThreads 1 and " + std::to_string(threads) +
                " disagree:\n" + t1.digest + "vs\n" + first_digest);
        }
    }

    out.samples["engine_events_per_s"] = rates;
    out.samples["setup_s"] = setup;
    out.endToEnd["engine_events_per_s"] = {untraced_rate, "events/s"};
    out.endToEnd["sim_cycles_per_s"] = {1.0, "cycles/s", false};
    out.endToEnd["service_events_per_s"] = {1.0, "events/s", false};
    out.endToEnd["refresh_reduction"] = {red, "fraction"};
    out.endToEnd["lo_coverage"] = {cov, "fraction"};
    out.endToEnd["test_overhead"] = {ovh, "fraction"};
    out.endToEnd["ipc_sum"] = {1.0, "IPC", false};
    out.endToEnd["drop_ratio"] = {1.0, "fraction", false};

    if (!args.trace)
        return out;

    // Traced passes: spans around every runOnApp and trace-generation
    // sweep, the oracle wrapper and the transition observer.
    InvariantProbe probe;
    UnitTimes traced_persona_s;
    std::vector<double> engine_s, gen_s, oracle_s;
    std::uint64_t gen_events = 0, oracle_calls = 0, oracle_fails = 0;
    PassResult traced_last;
    timedPasses(args.seconds * 0.5, 1, [&] {
        probe.oracle.reset();
        probe.fails = 0;
        Scoped pass(tracer, "pass");
        traced_last = runPass(in, threads, &tracer, &probe, pass.id());
        check_digest(traced_last);
        for (std::size_t p = 0; p < traced_last.seconds.size(); ++p)
            traced_persona_s.add(p, traced_last.seconds[p]);
        engine_s.push_back(traced_last.engineSeconds);
        oracle_s.push_back(probe.oracle.seconds());
        oracle_calls = probe.oracle.calls.load();
        oracle_fails = probe.fails.load();
        const Clock::time_point g0 = Clock::now();
        gen_events = generateAll(in, tracer, pass.id());
        gen_s.push_back(secondsSince(g0));
    });
    const std::uint64_t lo_without = probe.loWithoutPass.load();
    const std::uint64_t lo_transitions = probe.loTransitions.load();
    out.check(lo_without == 0,
              std::to_string(lo_without) +
                  " LO-REF transitions without a passing test of the "
                  "current content");
    out.check(sharded || lo_transitions > 0,
              "no LO-REF transition was observed");

    const auto &runs = traced_last.runs;
    auto sum = [&](auto field) {
        double s = 0.0;
        for (const auto &r : runs)
            s += static_cast<double>(field(r));
        return s;
    };
    double skew = 0.0;
    std::uint64_t peak_streams = 0;
    for (const auto &r : runs) {
        double mx = 0.0, total = 0.0;
        for (const auto &s : r.shards) {
            mx = std::max(mx, static_cast<double>(s.writes));
            total += static_cast<double>(s.writes);
        }
        const double mean = total / static_cast<double>(r.shards.size());
        skew = std::max(skew, ratio(mx, mean));
        peak_streams = std::max<std::uint64_t>(peak_streams, r.peakLiveStreams);
    }
    const double tests = sum([](const auto &r) { return r.testsRun; });

    auto &L = out.perLayer;
    L["trace.gen_s"] = median(gen_s);
    L["trace.events"] = static_cast<double>(gen_events);
    L["failure.oracle_calls"] = static_cast<double>(oracle_calls);
    L["failure.oracle_s"] = median(oracle_s);
    L["failure.fail_ratio"] =
        ratio(static_cast<double>(oracle_fails),
              static_cast<double>(oracle_calls));
    L["core.engine_run_s"] = median(engine_s);
    L["core.heap_pushes"] = sum([](const auto &r) { return r.heapPushes; });
    L["core.wheel_pops"] = sum([](const auto &r) { return r.wheelPops; });
    L["core.peak_live_streams"] = static_cast<double>(peak_streams);
    L["core.tests_run"] = tests;
    L["core.scrub_tests"] = sum([](const auto &r) { return r.scrubTests; });
    L["core.tests_deferred"] =
        sum([](const auto &r) { return r.testsDeferredBudget; });
    L["core.tests_skipped"] =
        sum([](const auto &r) { return r.testsSkippedBudget; });
    L["core.buffer_drops"] = sum([](const auto &r) { return r.bufferDrops; });
    L["core.tests_correct_ratio"] =
        ratio(sum([](const auto &r) { return r.testsCorrect; }), tests);
    L["core.tracker_bytes"] =
        sum([](const auto &r) { return r.trackerStorageBytes; });
    L["core.shard_write_skew"] = skew;
    L["core.shard_speedup"] =
        sharded ? ratio(t1_seconds, pass_s) : 1.0;
    L["core.lo_without_pass"] = static_cast<double>(lo_without);
    L["core.lo_transitions_checked"] = static_cast<double>(lo_transitions);
    L["trace.overhead"] = traced_persona_s.passSeconds() / pass_s - 1.0;
    return out;
}

} // namespace perfbench
