#include "failure/model.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace memcon::failure
{

namespace
{

unsigned
log2Exact(std::uint64_t v, const char *what)
{
    fatal_if(v == 0 || (v & (v - 1)) != 0,
             "%s must be a power of two, got %llu", what,
             static_cast<unsigned long long>(v));
    return static_cast<unsigned>(std::countr_zero(v));
}

} // namespace

FailureModel::FailureModel(const FailureModelParams &params,
                           std::uint64_t num_rows,
                           std::uint64_t cells_per_row)
    : modelParams(params), rows(num_rows), columns(cells_per_row),
      scrambler_(log2Exact(num_rows, "num_rows"),
                 log2Exact(cells_per_row, "cells_per_row"),
                 params.scrambling ? hashMix64(params.seed ^ 0x5eed) : 0),
      remapper_(cells_per_row, params.redundantColumns,
                params.remappedColumns, hashMix64(params.seed ^ 0x4e31))
{
    fatal_if(params.vulnerableCellsPerRow < 0.0 ||
                 params.weakCellsPerRow < 0.0,
             "cell population means must be non-negative");
    fatal_if(params.nominalIntervalMs <= 0.0,
             "nominal interval must be positive");
    fatal_if(params.marginFracMin <= 0.0 || params.marginFracMin >= 1.0,
             "marginFracMin must lie in (0, 1)");

    // Each row draws from its own seeded stream, so a row's cells do
    // not depend on how many rows the module has.
    const std::uint64_t total_cols = remapper_.totalColumns();
    offsets.reserve(rows + 1);
    for (std::uint64_t r = 0; r < rows; ++r) {
        offsets.push_back({static_cast<std::uint32_t>(vulnerable.size()),
                           static_cast<std::uint32_t>(weak.size())});
        Rng rng(hashMix64(modelParams.seed * 0x9e3779b97f4a7c15ULL ^
                          (r + 0x1234)));

        std::uint64_t n_vuln = rng.poisson(modelParams.vulnerableCellsPerRow);
        for (std::uint64_t i = 0; i < n_vuln; ++i) {
            VulnerableCell c;
            // Interior columns only, so both neighbours exist.
            c.column = 1 + rng.uniformInt(total_cols - 2);
            c.wLeft = static_cast<float>(
                rng.uniform(modelParams.weightMin, modelParams.weightMax));
            c.wRight = static_cast<float>(
                rng.uniform(modelParams.weightMin, modelParams.weightMax));
            c.marginFrac = static_cast<float>(
                rng.uniform(modelParams.marginFracMin, 1.0));
            vulnerable.push_back(c);
            geometry.push_back({scrambler_.logicalRow(r),
                                {logicalColumnAt(c.column),
                                 logicalColumnAt(c.column - 1),
                                 logicalColumnAt(c.column + 1)},
                                rowPolarity(RowId{r})});
        }

        std::uint64_t n_weak = rng.poisson(modelParams.weakCellsPerRow);
        for (std::uint64_t i = 0; i < n_weak; ++i) {
            WeakCell w;
            w.column = rng.uniformInt(total_cols);
            w.retentionMs = modelParams.nominalIntervalMs *
                            rng.uniform(modelParams.retentionMinFrac,
                                        modelParams.retentionMaxFrac);
            weak.push_back(w);
        }
    }
    fatal_if(vulnerable.size() > UINT32_MAX || weak.size() > UINT32_MAX,
             "cell population too large for the row table");
    offsets.push_back({static_cast<std::uint32_t>(vulnerable.size()),
                       static_cast<std::uint32_t>(weak.size())});
}

std::span<const VulnerableCell>
FailureModel::cellsOfRow(RowId physical_row) const
{
    panic_if(physical_row.value() >= rows, "physical row out of range");
    const std::uint64_t r = physical_row.value();
    return std::span(vulnerable).subspan(
        offsets[r].vulnerable,
        offsets[r + 1].vulnerable - offsets[r].vulnerable);
}

std::span<const WeakCell>
FailureModel::weakCellsOfRow(RowId physical_row) const
{
    panic_if(physical_row.value() >= rows, "physical row out of range");
    const std::uint64_t r = physical_row.value();
    return std::span(weak).subspan(offsets[r].weak,
                                   offsets[r + 1].weak - offsets[r].weak);
}

bool
FailureModel::rowPolarity(RowId physical_row) const
{
    return hashMix64(modelParams.seed ^
                     (physical_row.value() * 0x6b43a9b5)) &
           1;
}

double
FailureModel::leakScale(double interval_ms) const
{
    return std::pow(interval_ms / modelParams.nominalIntervalMs,
                    modelParams.leakExponent);
}

std::uint64_t
FailureModel::logicalColumnAt(std::uint64_t storage_col) const
{
    std::uint64_t addressed = remapper_.addressedColumn(storage_col);
    if (addressed == ColumnRemapper::kUnmapped)
        return ColumnRemapper::kUnmapped;
    return scrambler_.logicalColumn(addressed);
}

template <class Visit>
bool
FailureModel::visitFailures(RowId physical_row,
                            const ContentProvider *content,
                            double interval_ms, Visit &&visit) const
{
    panic_if(physical_row.value() >= rows, "physical row out of range");
    panic_if(interval_ms <= 0.0, "refresh interval must be positive");
    const RowOffsets &row = offsets[physical_row.value()];
    const RowOffsets &next = offsets[physical_row.value() + 1];

    if (row.vulnerable != next.vulnerable) {
        const double scale = leakScale(interval_ms);
        for (std::uint32_t i = row.vulnerable; i < next.vulnerable; ++i) {
            const VulnerableCell &c = vulnerable[i];
            double aggression;
            if (content == nullptr) {
                aggression = c.wLeft + c.wRight; // both neighbours aggress
            } else {
                // A cell is charged when its stored bit matches the
                // row polarity; an unused spare or fused-off column is
                // never driven, so never charged.
                const CellGeometry &g = geometry[i];
                bool charged[3];
                for (int k = 0; k < 3; ++k) {
                    const std::uint64_t col = g.logicalColumn[k];
                    charged[k] =
                        col != ColumnRemapper::kUnmapped &&
                        content->bit(g.logicalRow, col) == g.polarity;
                }
                aggression = 0.0;
                if (charged[1] != charged[0])
                    aggression += c.wLeft;
                if (charged[2] != charged[0])
                    aggression += c.wRight;
            }
            double margin =
                static_cast<double>(c.marginFrac) * (c.wLeft + c.wRight);
            if (aggression * scale >= margin && visit(c.column, true))
                return true;
        }
    }

    for (std::uint32_t i = row.weak; i < next.weak; ++i) {
        if (interval_ms >= weak[i].retentionMs &&
            visit(weak[i].column, false))
            return true;
    }
    return false;
}

std::vector<CellFailure>
FailureModel::evaluatePhysicalRow(RowId physical_row,
                                  const ContentProvider &content,
                                  double interval_ms) const
{
    std::vector<CellFailure> failures;
    visitFailures(physical_row, &content, interval_ms,
                  [&](std::uint64_t column, bool data_dependent) {
                      failures.push_back(
                          {physical_row, column, data_dependent});
                      return false;
                  });
    return failures;
}

void
FailureModel::readbackPhysicalRow(RowId physical_row,
                                  const ContentProvider &content,
                                  double interval_ms,
                                  std::uint64_t *dst,
                                  std::size_t n_words) const
{
    std::uint64_t logical_row = scrambler_.logicalRow(physical_row.value());
    content.fillRow(logical_row, dst, n_words);

    visitFailures(physical_row, &content, interval_ms,
                  [&](std::uint64_t column, bool) {
                      std::uint64_t logical_col = logicalColumnAt(column);
                      // No logical address, or outside the compared
                      // span: invisible here.
                      if (logical_col != ColumnRemapper::kUnmapped &&
                          logical_col / 64 < n_words)
                          dst[logical_col / 64] ^= std::uint64_t{1}
                                                   << (logical_col % 64);
                      return false;
                  });
}

bool
FailureModel::physicalRowFails(RowId physical_row,
                               const ContentProvider &content,
                               double interval_ms) const
{
    return visitFailures(physical_row, &content, interval_ms,
                         [](std::uint64_t, bool) { return true; });
}

bool
FailureModel::logicalRowFails(RowId logical_row,
                              const ContentProvider &content,
                              double interval_ms) const
{
    return physicalRowFails(RowId{scrambler_.physicalRow(logical_row.value())},
                            content, interval_ms);
}

bool
FailureModel::physicalRowCanFail(RowId physical_row,
                                 double interval_ms) const
{
    return visitFailures(physical_row, nullptr, interval_ms,
                         [](std::uint64_t, bool) { return true; });
}

double
FailureModel::failingRowFraction(const ContentProvider &content,
                                 double interval_ms,
                                 std::uint64_t row_limit) const
{
    std::uint64_t limit = row_limit == 0 ? rows : row_limit;
    panic_if(limit > rows, "row limit exceeds module size");
    std::uint64_t failing = 0;
    for (std::uint64_t r = 0; r < limit; ++r)
        if (physicalRowFails(RowId{r}, content, interval_ms))
            ++failing;
    return static_cast<double>(failing) / static_cast<double>(limit);
}

double
FailureModel::worstCaseRowFraction(double interval_ms,
                                   std::uint64_t row_limit) const
{
    std::uint64_t limit = row_limit == 0 ? rows : row_limit;
    panic_if(limit > rows, "row limit exceeds module size");
    std::uint64_t failing = 0;
    for (std::uint64_t r = 0; r < limit; ++r)
        if (physicalRowCanFail(RowId{r}, interval_ms))
            ++failing;
    return static_cast<double>(failing) / static_cast<double>(limit);
}

} // namespace memcon::failure
