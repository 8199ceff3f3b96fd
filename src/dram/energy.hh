/**
 * @file
 * An IDD-based DRAM energy model in the Micron power-calculator
 * style.
 *
 * The paper motivates MEMCON with energy as well as performance:
 * every eliminated refresh saves the burst current of an all-bank
 * REF (IDD5 over tRFC) and, system-wide, lets ranks idle longer. The
 * model converts command counts (from the cycle simulator's stats or
 * from analytic refresh-op counts) into energy, so benches can report
 * refresh-energy reduction for each policy.
 *
 * Currents are per-device datasheet values; a module multiplies by
 * the device count. Defaults follow a DDR3-1600 4 Gb part; tRFC (and
 * hence refresh burst energy) scales with density like the timing
 * model's.
 */

#ifndef MEMCON_DRAM_ENERGY_HH
#define MEMCON_DRAM_ENERGY_HH

#include <cstdint>

#include "dram/command.hh"
#include "dram/timing.hh"

namespace memcon::dram
{

/** Datasheet current/voltage parameters for one device. */
struct PowerParams
{
    double vdd = 1.35;     //!< supply voltage (V)
    double idd0 = 55e-3;   //!< ACT-PRE cycling current (A)
    double idd2n = 32e-3;  //!< precharge standby (A)
    double idd3n = 38e-3;  //!< active standby (A)
    double idd4r = 140e-3; //!< read burst (A)
    double idd4w = 145e-3; //!< write burst (A)
    double idd5b = 175e-3; //!< refresh burst (A)
    unsigned devicesPerRank = 8;

    /** DDR3-1600 defaults with density-scaled refresh burst time. */
    static PowerParams ddr3_1600();
};

/** Energy tally in joules, by component. */
struct EnergyBreakdown
{
    double actPre = 0.0;
    double read = 0.0;
    double write = 0.0;
    double refresh = 0.0;
    double background = 0.0;

    double total() const
    {
        return actPre + read + write + refresh + background;
    }
};

class EnergyModel
{
  public:
    EnergyModel(const PowerParams &power, const TimingParams &timing);

    /** Energy of one ACT+PRE pair (row cycle), per rank. */
    double actPreEnergy() const;

    /** Energy of one burst-length read / write, per rank. */
    double readEnergy() const;
    double writeEnergy() const;

    /** Energy of one all-bank REF (IDD5 burst over tRFC), per rank. */
    double refreshEnergy() const;

    /** Background (standby) energy over a duration, per rank.
     * @param active_fraction fraction of time some row is open */
    double backgroundEnergy(Tick duration, double active_fraction) const;

    /**
     * Tally a full run from the channel's command counts (ACT, RD,
     * RDA, WR, WRA) and the controller's refresh count.
     */
    EnergyBreakdown
    fromControllerStats(const CommandCounts &commands,
                        std::uint64_t refreshes, Tick duration,
                        double active_fraction) const;

    /**
     * Refresh energy of a policy over a period, from analytic
     * refresh-op counts (one op = one row's ACT+PRE-equivalent
     * refresh; used with the ms-domain MEMCON engine).
     */
    double refreshEnergyFromOps(double row_refresh_ops) const;

  private:
    PowerParams power;
    TimingParams timing;
};

} // namespace memcon::dram

#endif // MEMCON_DRAM_ENERGY_HH
