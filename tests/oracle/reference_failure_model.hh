/**
 * @file
 * The seed data-dependent failure model, kept as a test oracle for
 * failure::FailureModel.
 *
 * Same parameters, same per-row seeded draws, same scrambler and
 * remapper keys as the production model, but each query derives its
 * row's cell population on first touch into a lazy
 * std::unordered_map and maps every cell through the remapper and
 * scrambler on every call. tests/test_property.cc pins the
 * production model to it: identical populations, failure lists,
 * verdicts and readback words over scrambling on/off, repaired
 * columns, module sizes, intervals and contents.
 *
 * The lazy cache makes even the const queries write, so an instance
 * must not be shared between threads.
 */

#ifndef MEMCON_ORACLE_REFERENCE_FAILURE_MODEL_HH
#define MEMCON_ORACLE_REFERENCE_FAILURE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/strong_id.hh"
#include "failure/content.hh"
#include "failure/model.hh"
#include "failure/remap.hh"
#include "failure/scrambler.hh"

namespace memcon::oracle
{

class ReferenceFailureModel
{
  public:
    ReferenceFailureModel(const failure::FailureModelParams &params,
                          std::uint64_t num_rows,
                          std::uint64_t cells_per_row);

    const std::vector<failure::VulnerableCell> &
    cellsOfRow(RowId physical_row) const;
    const std::vector<failure::WeakCell> &
    weakCellsOfRow(RowId physical_row) const;

    std::vector<failure::CellFailure>
    evaluatePhysicalRow(RowId physical_row,
                        const failure::ContentProvider &content,
                        double interval_ms) const;
    bool physicalRowFails(RowId physical_row,
                          const failure::ContentProvider &content,
                          double interval_ms) const;
    bool logicalRowFails(RowId logical_row,
                         const failure::ContentProvider &content,
                         double interval_ms) const;
    bool physicalRowCanFail(RowId physical_row, double interval_ms) const;
    void readbackPhysicalRow(RowId physical_row,
                             const failure::ContentProvider &content,
                             double interval_ms, std::uint64_t *dst,
                             std::size_t n_words) const;

  private:
    struct RowPopulation
    {
        std::vector<failure::VulnerableCell> vulnerable;
        std::vector<failure::WeakCell> weak;
    };

    const RowPopulation &population(RowId physical_row) const;
    bool rowPolarity(RowId physical_row) const;
    double leakScale(double interval_ms) const;
    bool chargedAt(RowId physical_row, std::uint64_t storage_col,
                   const failure::ContentProvider &content) const;

    failure::FailureModelParams modelParams;
    std::uint64_t rows;
    failure::AddressScrambler scrambler_;
    failure::ColumnRemapper remapper_;

    mutable std::unordered_map<RowId, RowPopulation> cache;
};

} // namespace memcon::oracle

#endif // MEMCON_ORACLE_REFERENCE_FAILURE_MODEL_HH
