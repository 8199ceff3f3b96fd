/**
 * @file
 * The seed hash-set PRIL (Section 4.2, Figure 13), kept as a test
 * oracle for core::PrilPredictor.
 *
 * Same structures as the production predictor - two write-maps and
 * two bounded write-buffers - but the buffers are plain
 * std::unordered_set and the candidate list is a sorted snapshot.
 * It is bit-for-bit equivalent to core::PrilPredictor in candidates,
 * drops, peak occupancy, storage accounting, and state fingerprint
 * (tests/test_property.cc locksteps the two). The reference engine
 * (reference_engine.hh) predicts with it, and micro_pril_ops uses it
 * as the speedup baseline.
 */

#ifndef MEMCON_ORACLE_REFERENCE_PRIL_HH
#define MEMCON_ORACLE_REFERENCE_PRIL_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/bitvector.hh"
#include "common/strong_id.hh"

namespace memcon::oracle
{

class ReferencePrilPredictor
{
  public:
    ReferencePrilPredictor(std::uint64_t num_pages,
                           std::size_t buffer_capacity);

    void onWrite(PageId page);
    std::vector<PageId> endQuantum();

    std::uint64_t numPages() const { return pages; }
    std::size_t bufferCapacity() const { return capacity; }
    std::uint64_t bufferDrops() const { return drops; }
    std::size_t peakBufferOccupancy() const { return peakOccupancy; }
    std::size_t storageBytes() const;
    bool isTracked(PageId page) const;

    /** Same serialization as core::PrilPredictor::stateFingerprint:
     *  maps, then buffer members in ascending page order. */
    std::uint32_t stateFingerprint() const;

  private:
    std::uint64_t pages;
    std::size_t capacity;

    BitVector writeMap[2];
    std::unordered_set<PageId> writeBuffer[2];
    unsigned current = 0;

    std::uint64_t drops = 0;
    std::size_t peakOccupancy = 0;
};

} // namespace memcon::oracle

#endif // MEMCON_ORACLE_REFERENCE_PRIL_HH
