/**
 * @file
 * Lazy k-way merge of per-source sorted event streams.
 *
 * The MEMCON engine replays one ordered stream of write events built
 * from per-page timelines. Materializing every event and sorting is
 * O(W log W) time and O(W) memory; the merge instead keeps one
 * pending record per *live source* plus one window of staged events,
 * while the consumer sees events in exactly the order the old
 * materialize-then-`std::stable_sort` path produced.
 *
 * Ordering contract (load-bearing for the engine's bit-identical
 * metrics, see DESIGN.md §11): items are delivered in ascending
 * (time, source) order, and FIFO within one source. For per-page
 * streams that are individually sorted, this reproduces a stable
 * sort by time over events appended source-major - the tie-break the
 * seed engine got from `std::stable_sort` plus its page-major event
 * construction.
 *
 * Implementation: a classic binary heap over all sources delivers
 * this order but is cache-hostile at width (every pop walks log K
 * scattered heap levels; measured ~2x slower than the reference sort
 * at 100k sources). Instead, sources sit in a DeadlineWheel bucketed
 * by the epoch window floor(next_time / window) of their next event.
 * Advancing pops one window's sources, peels their events inside the
 * window into a staging batch, re-buckets each source under its next
 * event, and sorts the batch by (time, source, sequence) - sequence
 * being the staging position, which is FIFO within a source, so the
 * sorted batch is in (time, source, per-source-index) order. Windows
 * partition the timeline, so concatenated batches equal the heap
 * order whatever the window: total cost O(W log B + K log windows)
 * with B = events per window, resident memory O(K + B).
 *
 * The window is a cost knob, never an ordering one. A consumer that
 * drains the merge quantum by quantum should window on a fraction of
 * its quantum (kMergeWindowsPerQuantum), not on the whole quantum:
 * a window's batch, its sort scratch and its bucket offsets are
 * walked in a scatter, and one 512 ms quantum of a dense Table-1
 * persona stages ~38k events on average (~1.2 MB with scratch),
 * past L2.
 *
 * A Stream is any type with `bool next(double &out_ms)` yielding its
 * times in ascending order; the merge panics on a stream that runs
 * backwards (an unsorted stream would silently reorder ties). Times
 * at or past the horizon terminate their stream: for a sorted stream
 * nothing after the first out-of-window time can be in-window.
 */

#ifndef MEMCON_COMMON_KWAY_MERGE_HH
#define MEMCON_COMMON_KWAY_MERGE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/deadline_wheel.hh"
#include "common/logging.hh"

namespace memcon
{

/**
 * Merge windows per consumer quantum. Staging one eighth of a quantum
 * keeps a dense persona's batch and sort scratch (~4.7k events, ~150
 * KB, on average) inside L2. Merge-only drain of one 24.2M-event campaign pass
 * (Netflix + BlurMotion at 8x pages, 512 ms quanta; 4-vCPU Xeon,
 * AVX2, GCC 12.2, -O3), median of three best-of-3 runs: 1.17, 0.99,
 * 1.00, 1.07 and 1.16 s at 1, 4, 8, 16 and 32 windows per quantum,
 * of which event generation alone is 0.35 s. The order digest was
 * identical at every window. The wheel's slot vector grows by the
 * same factor, still at most ~16k slots for the longest Table-1
 * persona at the default quantum.
 */
inline constexpr unsigned kMergeWindowsPerQuantum = 8;

template <typename Stream>
class KWayMerge
{
  public:
    struct Item
    {
        double time;
        std::uint32_t source;
    };

    /**
     * Take ownership of the streams and bucket each source under the
     * epoch window of its first in-horizon event. window_ms sets the
     * batching granularity only; the delivered order is the same at
     * any window. Staging memory is one window's events, so a window
     * much wider than the cache wastes the batch sort's locality,
     * while one much narrower than the inter-event gap re-buckets a
     * source per event. The engine passes its quantum divided by
     * kMergeWindowsPerQuantum (see there for the sweep).
     */
    KWayMerge(std::vector<Stream> source_streams, double horizon_ms,
              double window_ms)
        : streams(std::move(source_streams)), horizon(horizon_ms),
          window(window_ms)
    {
        fatal_if(streams.size() >= (std::uint64_t{1} << 32),
                 "too many merge sources");
        fatal_if(window <= 0.0, "window must be positive");
        for (std::uint32_t s = 0; s < streams.size(); ++s) {
            double t;
            // Times are non-negative, so 0 is a valid floor for the
            // first event's disorder check.
            if (!pull(s, 0.0, t))
                continue;
            wheel.push(bucketOf(t), Pending{t, s});
            ++pushes;
        }
        peakLive = wheel.size();
    }

    /** @return true when no staged or pending event remains. */
    bool empty() const
    {
        // Wheel entries always carry an in-horizon next event, so a
        // non-empty wheel guarantees at least one more item.
        return batchPos >= batch.size() && wheel.empty();
    }

    /** The next item in (time, source) order; panics when empty. */
    const Item &peek()
    {
        refill();
        panic_if(batchPos >= batch.size(), "peek() on an empty merge");
        return batch[batchPos];
    }

    /** Remove and return the next item. */
    Item pop()
    {
        refill();
        panic_if(batchPos >= batch.size(), "pop() on an empty merge");
        return batch[batchPos++];
    }

    /** Peak sources holding an in-horizon event (instrumentation). */
    std::size_t peakLiveSources() const { return peakLive; }

    /** Peak events staged in one window's batch (instrumentation).
     *  The batch sort's scratch holds as many again. */
    std::size_t peakStagedEvents() const { return peakStaged; }

    /** Total source (re-)bucketings performed (instrumentation). */
    std::uint64_t heapPushes() const { return pushes; }

  private:
    /** One source waiting in the wheel with its next event time,
     *  which is also the floor of its stream's disorder check. */
    struct Pending
    {
        double time;
        std::uint32_t source;
    };

    /** A staged event; seq (staging position) makes the batch sort
     *  key (time, source, seq) unique and FIFO within a source. */
    struct Staged : Item
    {
        std::uint32_t seq;
    };

    /**
     * The window holding t. Float division can land one window off
     * in either direction; a window that starts after t would emit t
     * out of order, so correct downward (an early bucket is merely
     * re-bucketed when its window drains - see refill()).
     */
    std::int64_t bucketOf(double t) const
    {
        auto e = static_cast<std::int64_t>(t / window);
        if (e > 0 && t < static_cast<double>(e) * window)
            --e;
        return e;
    }

    /** Pull a source's next time into t; panic if it runs backwards
     *  from prev, retire the source at the horizon. @return true if
     *  the source stays live. */
    bool pull(std::uint32_t source, double prev, double &t)
    {
        if (!streams[source].next(t))
            return false;
        panic_if(t < 0.0, "negative write time");
        panic_if(t < prev,
                 "unsorted write stream for source %u (%g after %g)",
                 source, t, prev);
        return t < horizon;
    }

    /** Stage the next non-empty window once the batch is consumed. */
    void refill()
    {
        while (batchPos >= batch.size() && !wheel.empty()) {
            const std::int64_t epoch = wheel.nextEpoch();
            const double bound =
                std::min(static_cast<double>(epoch + 1) * window, horizon);
            due.clear();
            wheel.popDue(epoch, due);
            // Every live source is in exactly one of the two now;
            // after the re-push below a re-bucketed source would be
            // counted in both.
            peakLive = std::max(peakLive, wheel.size() + due.size());
            batch.clear();
            batchPos = 0;
            std::uint32_t seq = 0;
            for (const Pending &p : due) {
                double t = p.time;
                bool live = true;
                while (live && t < bound) {
                    batch.push_back(Staged{{t, p.source}, seq++});
                    const double prev = t;
                    live = pull(p.source, prev, t);
                }
                if (!live)
                    continue;
                // Next event past this window: re-bucket, forcing
                // progress past the drained epoch.
                wheel.push(std::max(bucketOf(t), epoch + 1),
                           Pending{t, p.source});
                ++pushes;
            }
            peakStaged = std::max(peakStaged, batch.size());
            sortBatch(static_cast<double>(epoch) * window, bound);
        }
    }

    /** The contract's order: (time, source), FIFO within a source. */
    static bool byTimeSourceSeq(const Staged &a, const Staged &b)
    {
        if (a.time != b.time)
            return a.time < b.time;
        if (a.source != b.source)
            return a.source < b.source;
        return a.seq < b.seq;
    }

    /** Sort batch[begin, end) by (time, source, seq): insertion sort
     *  for the few-event ranges the distribution pass leaves, else
     *  introsort. */
    void finishRange(std::size_t begin, std::size_t end)
    {
        if (end - begin > kInsertionMax) {
            std::sort(batch.begin() + static_cast<std::ptrdiff_t>(begin),
                      batch.begin() + static_cast<std::ptrdiff_t>(end),
                      byTimeSourceSeq);
            return;
        }
        for (std::size_t i = begin + 1; i < end; ++i) {
            const Staged x = batch[i];
            std::size_t j = i;
            for (; j > begin && byTimeSourceSeq(x, batch[j - 1]); --j)
                batch[j] = batch[j - 1];
            batch[j] = x;
        }
    }

    /**
     * Order the staged batch by (time, source, seq). The batch holds
     * one window's events, so times cluster inside [lo, hi); a
     * monotone distribution pass into ~2-event buckets followed by
     * per-bucket insertion sorts does the same work as a full
     * introsort at a fraction of the comparisons. The bucket index is
     * a monotone function of time and every bucket is finished with a
     * full-key sort, so the concatenated result is exact whatever
     * the distribution - early-bucketed stragglers below lo merely
     * crowd bucket 0, and a crowded bucket falls back to std::sort.
     */
    void sortBatch(double lo, double hi)
    {
        const std::size_t n = batch.size();
        if (n < kMinDistributed || !(hi > lo)) {
            finishRange(0, n);
            return;
        }
        std::size_t nb = 16;
        while (nb * kEventsPerBucket < n && nb < kMaxBuckets)
            nb <<= 1;
        const double scale = static_cast<double>(nb) / (hi - lo);
        bucketOfStaged.resize(n);
        bucketEnds.assign(nb + 1, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const double rel = (batch[i].time - lo) * scale;
            std::size_t b =
                rel <= 0.0 ? 0 : static_cast<std::size_t>(rel);
            if (b >= nb)
                b = nb - 1;
            bucketOfStaged[i] = static_cast<std::uint32_t>(b);
            ++bucketEnds[b + 1];
        }
        for (std::size_t b = 1; b <= nb; ++b)
            bucketEnds[b] += bucketEnds[b - 1];
        // bucketEnds[b] is bucket b's start; the scatter cursors it
        // forward so it finishes as bucket b's end offset.
        stagedScratch.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            stagedScratch[bucketEnds[bucketOfStaged[i]]++] = batch[i];
        batch.swap(stagedScratch);
        std::size_t begin = 0;
        for (std::size_t b = 0; b < nb; ++b) {
            const std::size_t end = bucketEnds[b];
            finishRange(begin, end);
            begin = end;
        }
    }

    /** Batches below this size skip the distribution pass. */
    static constexpr std::size_t kMinDistributed = 64;
    /** Target events per distribution bucket. */
    static constexpr std::size_t kEventsPerBucket = 2;
    /** Distribution bucket cap; crowded buckets fall to std::sort. */
    static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
    /** Largest range finished by insertion sort. */
    static constexpr std::size_t kInsertionMax = 16;

    std::vector<Stream> streams;
    DeadlineWheel<Pending> wheel;
    std::vector<Pending> due;
    std::vector<Staged> batch;
    // sortBatch() scratch, reused across windows.
    std::vector<std::uint32_t> bucketOfStaged;
    std::vector<std::uint32_t> bucketEnds;
    std::vector<Staged> stagedScratch;
    std::size_t batchPos = 0;
    double horizon;
    double window;
    std::uint64_t pushes = 0;
    std::size_t peakLive = 0;
    std::size_t peakStaged = 0;
};

} // namespace memcon

#endif // MEMCON_COMMON_KWAY_MERGE_HH
