#include "failure/disturb.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace memcon::failure
{

namespace
{

constexpr std::uint64_t kThresholdSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kPhaseSalt = 0xbf58476d1ce4e5b9ULL;

/** Quarter-ACT charge units of one full-weight activation. */
constexpr std::uint64_t kQuartersPerAct = 4;

} // namespace

DisturbModel::DisturbModel(const DisturbParams &params,
                           const dram::AddressMap *map,
                           std::uint64_t num_rows)
    : cfg(params), addressMap(map), rows(num_rows)
{
    fatal_if(addressMap == nullptr, "disturb model needs an address map");
    fatal_if(cfg.medianThreshold == 0, "median threshold must be positive");
    fatal_if(cfg.minThreshold == 0, "minimum threshold must be positive");
    fatal_if(cfg.thresholdSigma < 0.0, "threshold sigma must be >= 0");
    fatal_if(cfg.blastRadius2Weight < 0.0 || cfg.blastRadius2Weight > 1.0,
             "blast-radius weight must lie in [0, 1]");
    fatal_if(cfg.hiWindowMs <= 0.0 || cfg.loWindowMs <= 0.0,
             "refresh windows must be positive");
    fatal_if(cfg.loWindowMs < cfg.hiWindowMs,
             "LO-REF window cannot be shorter than HI-REF");
    quarterWeight2 = static_cast<std::uint64_t>(
        cfg.blastRadius2Weight * kQuartersPerAct + 0.5);
}

std::uint64_t
DisturbModel::thresholdOf(RowId victim) const
{
    Rng rng(hashMix64(cfg.seed ^ (victim.value() * kThresholdSalt)));
    const double drawn = static_cast<double>(cfg.medianThreshold) *
                         std::exp(cfg.thresholdSigma * rng.gaussian());
    const auto threshold = static_cast<std::uint64_t>(drawn);
    return std::max(cfg.minThreshold, threshold);
}

std::uint64_t
DisturbModel::windowTicksOf(RowId victim) const
{
    const bool lo = loRefQuery && loRefQuery(victim);
    const Tick window = msToTicks(lo ? cfg.loWindowMs : cfg.hiWindowMs);
    return std::max<std::uint64_t>(window.value(), 1);
}

std::uint64_t
DisturbModel::epochOf(RowId victim, Tick now,
                      std::uint64_t window_ticks) const
{
    const std::uint64_t phase =
        hashMix64(cfg.seed ^ (victim.value() * kPhaseSalt)) % window_ticks;
    return (now.value() + phase) / window_ticks;
}

void
DisturbModel::chargeVictim(RowId victim, std::uint64_t units, Tick now)
{
    VictimState &state = victims[victim];
    const std::uint64_t window = windowTicksOf(victim);
    const std::uint64_t epoch = epochOf(victim, now, window);
    if (!state.started || epoch != state.lastEpoch) {
        // The victim was refreshed since the last charge: disturbance
        // accumulated so far is restored (flips are not).
        state.charge = 0;
        state.lastEpoch = epoch;
        state.started = true;
    }
    state.charge += units;

    const std::uint64_t threshold = thresholdOf(victim) * kQuartersPerAct;
    while (state.charge >= threshold &&
           state.flippedDouble == 0) {
        state.charge -= threshold;
        if (state.flippedSingle == 0) {
            ++state.flippedSingle;
            ++singleFlipCount;
        } else {
            // The next-weakest cell sits in the same word often
            // enough at these densities: two flips defeat SECDED.
            ++state.flippedDouble;
            ++doubleFlipCount;
        }
    }
}

void
DisturbModel::onActivate(RowId row, Tick now)
{
    panic_if(row.value() >= rows, "row %llu out of range (%llu rows)",
             static_cast<unsigned long long>(row.value()),
             static_cast<unsigned long long>(rows));
    for (int delta : {-1, 1}) {
        if (auto victim = addressMap->rowNeighbor(row.value(), delta, rows))
            chargeVictim(RowId{*victim}, kQuartersPerAct, now);
    }
    if (quarterWeight2 == 0)
        return;
    for (int delta : {-2, 2}) {
        if (auto victim = addressMap->rowNeighbor(row.value(), delta, rows))
            chargeVictim(RowId{*victim}, quarterWeight2, now);
    }
}

void
DisturbModel::onVictimRefreshed(RowId victim, Tick now)
{
    VictimState &state = victims[victim];
    const std::uint64_t window = windowTicksOf(victim);
    state.charge = 0;
    state.lastEpoch = epochOf(victim, now, window);
    state.started = true;
}

void
DisturbModel::onRowRestored(RowId victim, Tick now)
{
    auto it = victims.find(victim);
    if (it == victims.end())
        return;
    VictimState &state = it->second;
    state.flippedSingle = 0;
    state.flippedDouble = 0;
    state.charge = 0;
    state.lastEpoch = epochOf(victim, now, windowTicksOf(victim));
    state.started = true;
}

void
DisturbModel::retireFlips(RowId victim)
{
    auto it = victims.find(victim);
    if (it == victims.end())
        return;
    it->second.flippedSingle = 0;
    it->second.flippedDouble = 0;
    it->second.charge = 0;
}

unsigned
DisturbModel::pendingSingle(RowId victim) const
{
    auto it = victims.find(victim);
    return it == victims.end() ? 0 : it->second.flippedSingle;
}

unsigned
DisturbModel::pendingDouble(RowId victim) const
{
    auto it = victims.find(victim);
    return it == victims.end() ? 0 : it->second.flippedDouble;
}

bool
DisturbModel::hasLatentFlip(RowId victim) const
{
    return pendingSingle(victim) > 0 || pendingDouble(victim) > 0;
}

} // namespace memcon::failure
