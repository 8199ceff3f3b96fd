/**
 * @file
 * What the closed-loop MEMCON logic needs from a memory controller
 * (Section 3.2-3.3): the hooks it listens on and the two calls it
 * makes.
 *
 * MEMCON lives inside the controller. It watches demand writes,
 * activations and ECC events (ControllerHooks), issues its row tests
 * and victim refreshes as lowest-priority traffic, and re-targets the
 * refresh cadence (ControllerPort). sim::MemoryController implements
 * the port and carries the hooks in its config; OnlineMemcon sees
 * only these two types, so core does not depend on the cycle
 * simulator and a test can drive it through a recording fake.
 */

#ifndef MEMCON_CORE_CONTROLLER_PORT_HH
#define MEMCON_CORE_CONTROLLER_PORT_HH

#include <cstdint>
#include <functional>

#include "common/units.hh"
#include "dram/ecc.hh"

namespace memcon::core
{

class ControllerPort
{
  public:
    /**
     * Offer one test-priority access (a row test's read or copy
     * write, or a victim refresh) at a block address. Test traffic
     * ranks below every demand request.
     *
     * @return false when the controller's test admission limit is
     *         reached; the caller retries on a later tick
     */
    virtual bool enqueueTest(std::uint64_t addr, bool is_write,
                             Tick now) = 0;

    /**
     * Re-target the refresh cadence: the fraction of baseline
     * refresh operations eliminated, in [0, 1).
     */
    virtual void setRefreshReduction(double reduction) = 0;

  protected:
    ~ControllerPort() = default;
};

/** Observer hooks a controller invokes; every field may be empty. */
struct ControllerHooks
{
    /**
     * Invoked for every accepted demand write (MEMCON's online
     * write-tracking hook; test traffic is not reported).
     */
    std::function<void(std::uint64_t addr, Tick now)> writeObserver;

    /**
     * Invoked for every row activation (ACT) the controller issues,
     * demand and test traffic alike - the accounting read-disturb
     * analysis hangs off. The address is the request's block address;
     * the observer maps it to a row.
     */
    std::function<void(std::uint64_t addr, Tick now)> activateObserver;

    /**
     * Invoked for every demand read whose decode was not Ok (the
     * error-event hook the resilience layer listens on).
     */
    std::function<void(std::uint64_t addr, dram::EccStatus status,
                       Tick now)>
        errorObserver;
};

} // namespace memcon::core

#endif // MEMCON_CORE_CONTROLLER_PORT_HH
