#include "stats/anova.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "stats/yates.hh"

namespace rigor::stats
{

std::vector<AnovaRow>
AnovaResult::rowsBySignificance() const
{
    std::vector<AnovaRow> sorted = rows;
    std::sort(sorted.begin(), sorted.end(),
              [](const AnovaRow &a, const AnovaRow &b) {
                  return a.variationExplained > b.variationExplained;
              });
    return sorted;
}

const AnovaRow &
AnovaResult::row(const std::string &label) const
{
    for (const AnovaRow &r : rows)
        if (r.label == label)
            return r;
    throw std::invalid_argument("AnovaResult::row: no row named " + label);
}

AnovaResult
analyzeFactorial(std::span<const std::string> factor_names,
                 std::span<const double> responses)
{
    const std::size_t n = responses.size();
    const std::size_t expected = std::size_t{1} << factor_names.size();
    if (n != expected)
        throw std::invalid_argument(
            "analyzeFactorial: need exactly 2^k responses");
    if (factor_names.size() > 20)
        throw std::invalid_argument(
            "analyzeFactorial: more than 20 factors is intractable; "
            "screen with a Plackett-Burman design first");

    AnovaResult result;
    result.numFactors = static_cast<unsigned>(factor_names.size());

    const std::vector<double> contrasts = yatesContrasts(responses);
    result.grandMean = contrasts[0] / static_cast<double>(n);

    // SS for a contrast of single observations: contrast^2 / 2^k.
    double model_ss = 0.0;
    result.rows.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i) {
        AnovaRow row;
        row.mask = static_cast<std::uint32_t>(i);
        row.label = contrastLabel(row.mask, factor_names);
        row.effect = contrasts[i] / static_cast<double>(n / 2);
        row.sumSquares =
            contrasts[i] * contrasts[i] / static_cast<double>(n);
        model_ss += row.sumSquares;
        result.rows.push_back(std::move(row));
    }

    result.totalSumSquares = model_ss;
    if (result.totalSumSquares > 0.0) {
        for (AnovaRow &row : result.rows)
            row.variationExplained =
                row.sumSquares / result.totalSumSquares;
    }
    return result;
}

std::string
formatAnovaTable(const AnovaResult &result)
{
    std::ostringstream os;
    os << std::left << std::setw(28) << "Term" << std::right
       << std::setw(14) << "Effect" << std::setw(16) << "SumSq"
       << std::setw(10) << "Var%" << "\n";

    for (const AnovaRow &row : result.rowsBySignificance()) {
        os << std::left << std::setw(28) << row.label << std::right
           << std::setw(14) << std::fixed << std::setprecision(4)
           << row.effect << std::setw(16) << std::setprecision(2)
           << row.sumSquares << std::setw(9) << std::setprecision(2)
           << 100.0 * row.variationExplained << "%\n";
    }
    return os.str();
}

} // namespace rigor::stats
