/**
 * @file
 * A bucketed deadline queue ("wheel") over coarse integer epochs.
 *
 * The engine's idle-row re-scrub used to re-scan every page at every
 * quantum boundary - O(quanta × pages) for a check that is almost
 * always false. The wheel buckets each entry under the epoch (quantum
 * index) at which it *may* become due, so a boundary only touches the
 * entries whose buckets have matured: O(pages + demotions) over a
 * whole run. The k-way event merge reuses it to bucket sources by
 * the window of their next event.
 *
 * Epochs are small, dense, and consumed monotonically (quantum or
 * window indexes), so buckets live in a flat slot vector behind a
 * forward-only cursor: push and pop are O(1) amortized with no
 * per-node allocation (a std::map-based wheel measurably dragged the
 * merge below the path it replaced). Consequently, pushing an epoch
 * the cursor has already passed is a panic ("push into the past") -
 * re-push matured-but-unserviced entries at now + 1. A drained slot
 * hands its buffer to the next slot that needs one, so a run
 * allocates one buffer per concurrently pending bucket, not one per
 * epoch (the merge's sub-quantum windows make epochs plentiful: a
 * 64-shard campaign paid ~5% of its merge time in slot allocations).
 *
 * Determinism contract: popDue() drains matured buckets in ascending
 * bucket order and FIFO within a bucket, so the pop sequence is a
 * pure function of the push sequence. Callers that need a different
 * service order (the engine re-sorts due scrub entries by page to
 * reproduce the seed engine's page-ascending scan) impose it on the
 * popped batch.
 *
 * Buckets are advisory, not authoritative: an entry may be popped
 * before its real deadline (the caller re-checks its own predicate
 * and re-pushes into a later bucket), but must never be bucketed
 * *after* it - push conservatively early when in doubt. Lazily
 * re-pushed or stale entries (state changed since enqueue) are the
 * caller's to drop.
 */

#ifndef MEMCON_COMMON_DEADLINE_WHEEL_HH
#define MEMCON_COMMON_DEADLINE_WHEEL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace memcon
{

template <typename Entry>
class DeadlineWheel
{
  public:
    /** Enqueue an entry to mature at the given epoch (or earlier). */
    void push(std::int64_t epoch, const Entry &entry)
    {
        panic_if(epoch < 0, "negative wheel epoch");
        panic_if(epoch < cursor, "wheel push into the past "
                 "(epoch %lld, cursor %lld)",
                 static_cast<long long>(epoch),
                 static_cast<long long>(cursor));
        auto idx = static_cast<std::size_t>(epoch);
        if (idx >= slots.size())
            slots.resize(idx + 1);
        std::vector<Entry> &slot = slots[idx];
        if (slot.capacity() == 0 && !spare.empty()) {
            slot = std::move(spare.back());
            spare.pop_back();
        }
        slot.push_back(entry);
        ++numEntries;
    }

    /**
     * Drain every bucket with epoch <= now, appending the entries to
     * out in (epoch, insertion) order. @return the number popped.
     */
    std::size_t popDue(std::int64_t now, std::vector<Entry> &out)
    {
        std::size_t popped = 0;
        while (cursor <= now &&
               static_cast<std::size_t>(cursor) < slots.size()) {
            std::vector<Entry> &slot =
                slots[static_cast<std::size_t>(cursor)];
            popped += slot.size();
            out.insert(out.end(), slot.begin(), slot.end());
            slot.clear();
            if (slot.capacity() != 0)
                spare.push_back(std::move(slot));
            ++cursor;
        }
        if (cursor <= now)
            cursor = now + 1;
        panic_if(popped > numEntries, "wheel entry accounting broken");
        numEntries -= popped;
        return popped;
    }

    std::size_t size() const { return numEntries; }
    bool empty() const { return numEntries == 0; }

    /** The earliest pending epoch; panics when empty. */
    std::int64_t nextEpoch() const
    {
        panic_if(numEntries == 0, "nextEpoch() on an empty wheel");
        // The scan resumes from the cursor each call; the cursor only
        // moves forward, so the total scan work over a wheel's life
        // is O(max epoch), amortized O(1) per pop.
        auto idx = static_cast<std::size_t>(cursor);
        while (idx < slots.size() && slots[idx].empty())
            ++idx;
        panic_if(idx >= slots.size(), "wheel entry accounting broken");
        return static_cast<std::int64_t>(idx);
    }

    /** Distinct pending epochs (instrumentation/testing). */
    std::size_t bucketCount() const
    {
        std::size_t n = 0;
        for (std::size_t i = static_cast<std::size_t>(cursor);
             i < slots.size(); ++i)
            n += !slots[i].empty();
        return n;
    }

  private:
    std::vector<std::vector<Entry>> slots;
    std::vector<std::vector<Entry>> spare; //!< empty drained buffers
    std::int64_t cursor = 0; //!< first epoch not yet drained
    std::size_t numEntries = 0;
};

} // namespace memcon

#endif // MEMCON_COMMON_DEADLINE_WHEEL_HH
