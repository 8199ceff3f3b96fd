/**
 * @file
 * Shared vocabulary of the perfbench driver: run arguments, the
 * in-memory span recorder of the traced run, and the outcome every
 * workload hands back to main().
 *
 * Every workload follows the same shape:
 *
 *   1. set-up, timed on its own before every unit of work, each
 *      sample a batch of builds long enough to rise above timer and
 *      scheduler noise; setup_s is the fastest per-build time;
 *   2. a measured loop of "passes" - one pass is the workload's whole
 *      input, run once through the public entry points - until the
 *      run's time budget is spent; a pass's time is the sum of each
 *      unit's fastest repeat (UnitTimes), and rates divide by it;
 *   3. output checks: the deterministic outputs of every pass must be
 *      bit-identical, plus the workload's own invariants.
 *
 * In a traced run the first half of the budget runs untraced passes
 * and the second half traced ones, so the tracing overhead is measured
 * in the same process.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir; //!< results, spans and scratch files go here
    std::string commit = "unknown";
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
double fastest(const std::vector<double> &v);

/** One timed interval of the traced run. Per-call spans have
 * calls == 1 and busyNs == endNs - startNs; window spans aggregate a
 * hot call (one per tick, one per oracle query) over [start, end). */
struct Span
{
    std::string name;
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t calls = 1;
    std::int64_t busyNs = 0;
};

/**
 * Keeps spans in memory and writes them out at exit. Thread-safe:
 * shard workers may record concurrently. Disabled recorders accept
 * every call and keep nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    std::int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch)
            .count();
    }

    /** Open a span; returns its id (-1 when disabled). */
    int open(const std::string &name, int parent = -1);
    void close(int id);

    /** Record an already-measured aggregate span. */
    int record(const std::string &name, int parent, std::int64_t start_ns,
               std::int64_t end_ns, std::uint64_t calls,
               std::int64_t busy_ns);

    bool write(const std::string &path) const;

  private:
    bool on;
    Clock::time_point epoch = Clock::now();
    mutable std::mutex mu;
    std::vector<Span> spans; // guarded by mu
};

/** RAII span around one benchmark -> layer call. */
class Scoped
{
  public:
    Scoped(Tracer &t, const std::string &name, int parent = -1)
        : tracer(t), spanId(t.open(name, parent))
    {
    }
    ~Scoped() { tracer.close(spanId); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int id() const { return spanId; }

  private:
    Tracer &tracer;
    int spanId;
};

/** Busy time and call count of a hot call, summed across threads. */
struct HotCounter
{
    std::atomic<std::int64_t> busyNs{0};
    std::atomic<std::uint64_t> calls{0};

    void add(std::int64_t ns)
    {
        busyNs.fetch_add(ns, std::memory_order_relaxed);
        calls.fetch_add(1, std::memory_order_relaxed);
    }
    void reset()
    {
        busyNs.store(0);
        calls.store(0);
    }
    double seconds() const { return static_cast<double>(busyNs.load()) * 1e-9; }
};

struct Metric
{
    double value = 0.0;
    std::string unit;
    bool applies = true; //!< false: this workload does not run the path
};

/** What a workload hands back to main(). */
struct Outcome
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, double> perLayer;
    /** Per-pass and per-unit values behind each result, for the
     * result file. */
    std::map<std::string, std::vector<double>> samples;
    std::uint64_t attempted = 0; //!< passes run (each fully checked)
    std::uint64_t failed = 0;    //!< passes whose outputs failed a check
    std::vector<std::string> failures; //!< one line per failed check

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/**
 * Host seconds of repeated units of work: unit i is the same work in
 * every pass (one persona, one service, one window of ticks). A pass
 * is estimated as the sum over units of each unit's fastest time. A
 * shared host only ever adds time to a unit - a busy sibling thread,
 * a migration, a cold cache - so the fastest repeat is the steadiest
 * estimate of what the unit itself costs.
 */
class UnitTimes
{
  public:
    void add(std::size_t unit, double seconds)
    {
        if (unit >= times.size())
            times.resize(unit + 1);
        times[unit].push_back(seconds);
    }

    double passSeconds() const
    {
        double s = 0.0;
        for (const auto &v : times)
            s += fastest(v);
        return s;
    }

    /** Every unit's repeats, as result-file samples "unit_s.<i>". */
    void saveTo(Outcome &out) const
    {
        for (std::size_t i = 0; i < times.size(); ++i)
            if (!times[i].empty())
                out.samples["unit_s." + std::to_string(i)] = times[i];
    }

  private:
    std::vector<std::vector<double>> times;
};

/**
 * Appends to `out` the per-build seconds of `samples` timed batches of
 * `batch` calls to `build`. Workloads sample between units of work,
 * so the samples meet the same host as the rates do; setup_s is the
 * fastest of them, for the reason UnitTimes gives. Free heap memory
 * goes back to the kernel before each batch, so every batch starts
 * cold and pays its page faults, as a freshly started binary does,
 * whatever earlier passes left in the heap. A build's teardown falls
 * inside its batch, so a batch never holds more than one build's
 * memory.
 */
template <typename Build>
void
sampleSetup(std::vector<double> &out, unsigned samples, unsigned batch,
            Build &&build)
{
    for (unsigned s = 0; s < samples; ++s) {
        malloc_trim(0);
        const Clock::time_point t0 = Clock::now();
        for (unsigned b = 0; b < batch; ++b)
            build();
        out.push_back(secondsSince(t0) / batch);
    }
}

/** Runs `pass` repeatedly until `budget_s` has elapsed, and at least
 * `min_passes` times. */
template <typename Pass>
void
timedPasses(double budget_s, unsigned min_passes, Pass &&pass)
{
    const Clock::time_point t0 = Clock::now();
    for (unsigned n = 0; n < min_passes || secondsSince(t0) < budget_s; ++n)
        pass();
}

Outcome runCampaign(const Args &args, Tracer &tracer, bool sharded);
Outcome runClosedLoop(const Args &args, Tracer &tracer);
Outcome runMemcond(const Args &args, Tracer &tracer);

/**
 * Binds this process to the CPU it is running on. The flat, closed-
 * loop and memcond workloads do serial work, so one core is all they
 * use: bound, the scheduler cannot move the timed loop to a cold core
 * mid-unit, and threads started later (memcond's pool worker) inherit
 * the binding, so each round's hand-off between the caller and the
 * worker stays on one core. Returns the CPU, or -1 if the binding
 * failed and the run goes on unbound.
 */
int pinToCurrentCpu();

/** Peak resident set of this process so far, in MiB. */
double peakRssMiB();

/** Host fingerprint as a JSON object (CPU, cores, kernel set, build). */
std::string hostFingerprintJson(const Args &args);

std::string jsonEscape(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
