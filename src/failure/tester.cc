#include "failure/tester.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/simd.hh"

namespace memcon::failure
{

double
temperatureScaledInterval(double interval_ms, double from_celsius,
                          double to_celsius)
{
    // k fitted to the paper's equivalence 4 s @ 45°C == 328 ms @ 85°C:
    // k = ln(4000 / 328) / 40 per °C.
    static const double k = std::log(4000.0 / 328.0) / 40.0;
    return interval_ms * std::exp(-k * (to_celsius - from_celsius));
}

DramTester::DramTester(const FailureModel &model_ref) : model(model_ref) {}

std::uint64_t
DramTester::rowLimitOrAll(std::uint64_t row_limit) const
{
    std::uint64_t limit = row_limit == 0 ? model.numRows() : row_limit;
    fatal_if(limit > model.numRows(),
             "row limit %llu exceeds module rows %llu",
             static_cast<unsigned long long>(limit),
             static_cast<unsigned long long>(model.numRows()));
    return limit;
}

TestResult
DramTester::testWithContent(const ContentProvider &content,
                            double interval_ms,
                            std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    TestResult result;
    result.rowsTested = limit;
    for (std::uint64_t r = 0; r < limit; ++r) {
        auto fails =
            model.evaluatePhysicalRow(RowId{r}, content, interval_ms);
        if (!fails.empty()) {
            ++result.rowsFailing;
            result.failures.insert(result.failures.end(), fails.begin(),
                                   fails.end());
        }
    }
    return result;
}

std::size_t
DramTester::rowWords() const
{
    return static_cast<std::size_t>((model.cellsPerRow() + 63) / 64);
}

TestResult
DramTester::testWithContentBlock(const ContentProvider &content,
                                 double interval_ms,
                                 std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    const std::size_t n_words = rowWords();
    TestResult result;
    result.rowsTested = limit;

    std::vector<std::uint64_t> expected(n_words);
    std::vector<std::uint64_t> readback(n_words);

    for (std::uint64_t r = 0; r < limit; ++r) {
        std::uint64_t logical_row = model.scrambler().logicalRow(r);
        content.fillRow(logical_row, expected.data(), n_words);
        model.readbackPhysicalRow(RowId{r}, content, interval_ms,
                                  readback.data(), n_words);
        if (!simd::rowsEqual(expected.data(), readback.data(), n_words)) {
            ++result.rowsFailing;
            result.failingBits += simd::xorPopcount(
                expected.data(), readback.data(), n_words);
        }
    }
    return result;
}

TestResult
DramTester::testWithPatternBattery(
    const std::vector<PatternContent> &battery, double interval_ms,
    std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    TestResult result;
    result.rowsTested = limit;

    std::set<std::pair<RowId, std::uint64_t>> seen;
    std::vector<bool> row_failed(limit, false);
    for (const PatternContent &pattern : battery) {
        for (std::uint64_t r = 0; r < limit; ++r) {
            auto fails =
                model.evaluatePhysicalRow(RowId{r}, pattern, interval_ms);
            for (const CellFailure &f : fails) {
                if (seen.insert({f.physicalRow, f.column}).second)
                    result.failures.push_back(f);
                row_failed[r] = true;
            }
        }
    }
    for (bool failed : row_failed)
        if (failed)
            ++result.rowsFailing;
    return result;
}

TestResult
DramTester::exhaustivePhysicalTest(double interval_ms,
                                   std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    TestResult result;
    result.rowsTested = limit;
    for (std::uint64_t r = 0; r < limit; ++r) {
        if (model.physicalRowCanFail(RowId{r}, interval_ms))
            ++result.rowsFailing;
    }
    return result;
}

std::vector<std::set<std::pair<RowId, std::uint64_t>>>
DramTester::perPatternFailingCells(
    const std::vector<PatternContent> &battery, double interval_ms,
    std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    std::vector<std::set<std::pair<RowId, std::uint64_t>>> out;
    out.reserve(battery.size());
    for (const PatternContent &pattern : battery) {
        std::set<std::pair<RowId, std::uint64_t>> cells;
        for (std::uint64_t r = 0; r < limit; ++r) {
            for (const CellFailure &f :
                 model.evaluatePhysicalRow(RowId{r}, pattern,
                                           interval_ms)) {
                cells.insert({f.physicalRow, f.column});
            }
        }
        out.push_back(std::move(cells));
    }
    return out;
}

std::vector<DramTester::PatternBitCounts>
DramTester::batteryFailingBitCounts(
    const std::vector<PatternContent> &battery, double interval_ms,
    std::uint64_t row_limit) const
{
    std::uint64_t limit = rowLimitOrAll(row_limit);
    const std::size_t n_words = rowWords();
    std::vector<PatternBitCounts> out(battery.size());

    std::vector<std::uint64_t> expected(n_words);
    std::vector<std::uint64_t> readback(n_words);
    std::vector<std::uint64_t> diff(n_words);
    std::vector<std::uint64_t> fresh(n_words);
    // One seen-mask per row, accumulated across the battery.
    std::vector<std::uint64_t> seen(limit * n_words);

    for (std::size_t i = 0; i < battery.size(); ++i) {
        const PatternContent &pattern = battery[i];
        for (std::uint64_t r = 0; r < limit; ++r) {
            std::uint64_t logical_row = model.scrambler().logicalRow(r);
            pattern.fillRow(logical_row, expected.data(), n_words);
            model.readbackPhysicalRow(RowId{r}, pattern, interval_ms,
                                      readback.data(), n_words);
            for (std::size_t w = 0; w < n_words; ++w)
                diff[w] = expected[w] ^ readback[w];
            std::uint64_t bits = simd::popcountWords(diff.data(), n_words);
            if (bits == 0)
                continue;
            out[i].failingBits += bits;

            // New bits = diff with everything already seen masked
            // off; then fold this pattern's diff into the row mask.
            std::uint64_t *row_seen = seen.data() + r * n_words;
            fresh = diff;
            simd::andNotWords(fresh.data(), row_seen, n_words);
            out[i].newFailingBits +=
                simd::popcountWords(fresh.data(), n_words);
            simd::orWords(row_seen, diff.data(), n_words);
        }
    }
    return out;
}

} // namespace memcon::failure
