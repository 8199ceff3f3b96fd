#include "dram/energy.hh"

#include "common/logging.hh"

namespace memcon::dram
{

PowerParams
PowerParams::ddr3_1600()
{
    return PowerParams{};
}

EnergyModel::EnergyModel(const PowerParams &power_params,
                         const TimingParams &timing_params)
    : power(power_params), timing(timing_params)
{
    fatal_if(power.vdd <= 0.0, "supply voltage must be positive");
    fatal_if(power.devicesPerRank == 0, "rank needs devices");
}

double
EnergyModel::actPreEnergy() const
{
    // IDD0 is measured cycling ACT-PRE at tRC; the incremental energy
    // of one row cycle above active standby:
    double t_rc_s = ticksToNs(timing.cyc(timing.tRC)) * 1e-9;
    double incremental = (power.idd0 - power.idd3n) * power.vdd * t_rc_s;
    return incremental * power.devicesPerRank;
}

double
EnergyModel::readEnergy() const
{
    double t_burst_s = ticksToNs(timing.cyc(timing.tBL)) * 1e-9;
    double incremental =
        (power.idd4r - power.idd3n) * power.vdd * t_burst_s;
    return incremental * power.devicesPerRank;
}

double
EnergyModel::writeEnergy() const
{
    double t_burst_s = ticksToNs(timing.cyc(timing.tBL)) * 1e-9;
    double incremental =
        (power.idd4w - power.idd3n) * power.vdd * t_burst_s;
    return incremental * power.devicesPerRank;
}

double
EnergyModel::refreshEnergy() const
{
    double t_rfc_s = ticksToNs(timing.cyc(timing.tRFC)) * 1e-9;
    double incremental =
        (power.idd5b - power.idd2n) * power.vdd * t_rfc_s;
    return incremental * power.devicesPerRank;
}

double
EnergyModel::backgroundEnergy(Tick duration,
                              double active_fraction) const
{
    fatal_if(active_fraction < 0.0 || active_fraction > 1.0,
             "active fraction must lie in [0, 1]");
    double t_s = ticksToNs(duration) * 1e-9;
    double current = active_fraction * power.idd3n +
                     (1.0 - active_fraction) * power.idd2n;
    return current * power.vdd * t_s * power.devicesPerRank;
}

EnergyBreakdown
EnergyModel::fromControllerStats(const CommandCounts &commands,
                                 std::uint64_t refreshes, Tick duration,
                                 double active_fraction) const
{
    auto count = [&commands](Command cmd) {
        return static_cast<double>(commands[static_cast<std::size_t>(cmd)]);
    };
    EnergyBreakdown e;
    double acts = count(Command::Act);
    double reads = count(Command::Rd) + count(Command::RdA);
    double writes = count(Command::Wr) + count(Command::WrA);
    double refs = static_cast<double>(refreshes);

    e.actPre = acts * actPreEnergy();
    e.read = reads * readEnergy();
    e.write = writes * writeEnergy();
    e.refresh = refs * refreshEnergy();
    e.background = backgroundEnergy(duration, active_fraction);
    return e;
}

double
EnergyModel::refreshEnergyFromOps(double row_refresh_ops) const
{
    // A per-row refresh is an ACT+PRE cycle of that row.
    return row_refresh_ops * actPreEnergy();
}

} // namespace memcon::dram
