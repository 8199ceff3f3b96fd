/**
 * @file
 * An FR-FCFS memory controller over one DDR3 channel.
 *
 * Scheduling policy (Table 2 system):
 *  - separate read and write queues; writes are posted and drained in
 *    batches between high/low watermarks,
 *  - FR-FCFS: row-hit column commands first, then oldest-first,
 *  - demand requests outrank MEMCON test traffic (isTest),
 *  - refresh: one REF per rank every effective tREFI, with strict
 *    priority (open banks are precharged, then the rank is blocked
 *    for tRFC). The effective tREFI is base tREFI divided by
 *    (1 - refreshReduction): a 75% reduction stretches it 4x, which
 *    is how the paper models MEMCON's multi-rate refresh inside the
 *    cycle simulator (Section 6.2).
 */

#ifndef MEMCON_SIM_CONTROLLER_HH
#define MEMCON_SIM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "common/units.hh"
#include "core/controller_port.hh"
#include "dram/channel.hh"
#include "dram/ecc.hh"
#include "sim/request.hh"

namespace memcon::sim
{

/**
 * Controller knobs; the observer hooks come from core::ControllerHooks
 * (the write, activate and error observers MEMCON listens on).
 */
struct ControllerConfig : core::ControllerHooks
{
    std::size_t readQueueCapacity = 32;
    std::size_t writeQueueCapacity = 32;
    std::size_t writeDrainHigh = 28; //!< start draining writes
    std::size_t writeDrainLow = 8;   //!< stop draining writes

    /**
     * Fraction of baseline refresh operations eliminated (0 = the
     * aggressive baseline cadence, 0.75 = the 64 ms upper bound).
     */
    double refreshReduction = 0.0;

    /** Disable refresh entirely (ideal-no-refresh ablation). */
    bool refreshEnabled = true;

    /**
     * Starvation guard: a demand request older than this is served
     * before younger row hits. Pure FR-FCFS can starve a row-miss
     * request indefinitely behind streaming row-hit traffic.
     */
    Tick starvationThreshold = Tick{2 * tickPerUs};

    /**
     * Test-traffic admission limit: test requests are only accepted
     * while the target queue holds fewer entries than this, keeping
     * headroom for demand requests (test traffic is deprioritised at
     * admission as well as at service).
     */
    std::size_t testAdmissionLimit = 16;

    /**
     * Models the ECC decode of the data a completed demand read
     * returns (fault-injection hook). Absent means every read
     * decodes clean. Test-traffic reads are not probed - their
     * verdicts come from the TestEngine's compare.
     */
    std::function<dram::EccStatus(std::uint64_t addr, Tick now)>
        eccProbe;
};

/** Request and refresh counts of one controller. */
struct ControllerStats
{
    std::uint64_t refresh = 0;        //!< REF commands issued
    std::uint64_t queueFull = 0;      //!< enqueues refused
    std::uint64_t enqueuedReads = 0;
    std::uint64_t enqueuedWrites = 0;
    std::uint64_t completedReads = 0; //!< read data returned
    std::uint64_t completedWrites = 0;
    std::uint64_t eccCorrected = 0;   //!< demand reads decoded corrected

    /**
     * A count by its dotted name ("refresh", "queueFull", "enq.read",
     * "enq.write", "completed.read", "completed.write",
     * "ecc.corrected"); fatal on any other name.
     */
    double value(std::string_view name) const;
};

class MemoryController final : public core::ControllerPort
{
  public:
    MemoryController(const dram::Geometry &geometry,
                     const dram::TimingParams &timing,
                     const ControllerConfig &config);

    /** Try to accept a request; false when the target queue is full. */
    bool enqueue(Request request, Tick now);

    /**
     * Accept one MEMCON test access (isTest, no issuing core): the
     * only place test-priority requests are built.
     */
    bool enqueueTest(std::uint64_t addr, bool is_write,
                     Tick now) override;

    /** Advance one DRAM clock: issue at most one command. */
    void tick(Tick now);

    /**
     * Re-target the refresh cadence while running (MEMCON adapts it
     * as the LO-REF row fraction changes). Takes effect from the
     * next scheduled refresh.
     */
    void setRefreshReduction(double reduction) override;

    /** Current effective reduction. */
    double refreshReduction() const { return cfg.refreshReduction; }

    /** @return true when both queues and in-flight lists are empty. */
    bool idle() const;

    std::size_t readQueueSize() const { return readQueue.size(); }
    std::size_t writeQueueSize() const { return writeQueue.size(); }

    const ControllerStats &stats() const { return counts; }
    const dram::Channel &channel() const { return chan; }

  private:
    struct Pending
    {
        Request req;
        Tick dataDone;
    };

    /** Index into the queue of the best FR-FCFS candidate, or -1. */
    int pickCandidate(const std::deque<Request> &queue, Tick now) const;

    bool serviceQueue(std::deque<Request> &queue, Tick now);
    void handleRefresh(Tick now);
    void completeFinishedReads(Tick now);

    dram::Geometry geom;
    dram::TimingParams params;
    ControllerConfig cfg;
    dram::Channel chan;

    std::deque<Request> readQueue;
    std::deque<Request> writeQueue;
    std::vector<Pending> inflight;

    bool drainingWrites = false;
    std::vector<Tick> nextRefresh; //!< per rank
    Tick effectiveTrefi;

    ControllerStats counts;
};

} // namespace memcon::sim

#endif // MEMCON_SIM_CONTROLLER_HH
