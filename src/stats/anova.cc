#include "stats/anova.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "stats/distributions.hh"
#include "stats/yates.hh"

namespace rigor::stats
{

namespace
{

/**
 * Core of both entry points: build the table from per-treatment means
 * plus (optionally) within-treatment error statistics.
 */
AnovaResult
buildResult(std::span<const std::string> factor_names,
            std::span<const double> treatment_means, unsigned replications,
            double error_ss, unsigned error_dof)
{
    const std::size_t n = treatment_means.size();
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
    result.replications = replications;
    result.errorSumSquares = error_ss;
    result.errorDof = error_dof;

    const std::vector<double> contrasts = yatesContrasts(treatment_means);
    result.grandMean = contrasts[0] / static_cast<double>(n);

    // SS for a contrast of treatment means with r replications each:
    // SS = r * contrast^2 / 2^k.
    const double r = static_cast<double>(replications);
    double model_ss = 0.0;
    result.rows.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i) {
        AnovaRow row;
        row.mask = static_cast<std::uint32_t>(i);
        row.label = contrastLabel(row.mask, factor_names);
        row.effect = contrasts[i] / static_cast<double>(n / 2);
        row.sumSquares =
            r * contrasts[i] * contrasts[i] / static_cast<double>(n);
        model_ss += row.sumSquares;
        result.rows.push_back(std::move(row));
    }

    result.totalSumSquares = model_ss + error_ss;
    if (result.totalSumSquares > 0.0) {
        for (AnovaRow &row : result.rows)
            row.variationExplained =
                row.sumSquares / result.totalSumSquares;
    }

    // F-tests need an error estimate, i.e. replication.
    if (error_dof > 0 && error_ss > 0.0) {
        const double error_ms = error_ss / static_cast<double>(error_dof);
        const FDistribution f_dist(1.0, static_cast<double>(error_dof));
        for (AnovaRow &row : result.rows) {
            row.fStatistic = row.sumSquares / error_ms;
            row.pValue = f_dist.survival(row.fStatistic);
        }
    }
    return result;
}

} // namespace

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
    return buildResult(factor_names, responses, 1, 0.0, 0);
}

std::string
formatAnovaTable(const AnovaResult &result)
{
    std::ostringstream os;
    os << std::left << std::setw(28) << "Term" << std::right
       << std::setw(14) << "Effect" << std::setw(16) << "SumSq"
       << std::setw(10) << "Var%";
    const bool have_f = result.errorDof > 0;
    if (have_f)
        os << std::setw(12) << "F" << std::setw(12) << "p";
    os << "\n";

    for (const AnovaRow &row : result.rowsBySignificance()) {
        os << std::left << std::setw(28) << row.label << std::right
           << std::setw(14) << std::fixed << std::setprecision(4)
           << row.effect << std::setw(16) << std::setprecision(2)
           << row.sumSquares << std::setw(9) << std::setprecision(2)
           << 100.0 * row.variationExplained << "%";
        if (have_f) {
            os << std::setw(12) << std::setprecision(2) << row.fStatistic
               << std::setw(12) << std::setprecision(4) << row.pValue;
        }
        os << "\n";
    }
    if (have_f) {
        os << std::left << std::setw(28) << "error" << std::right
           << std::setw(14) << "" << std::setw(16) << std::fixed
           << std::setprecision(2) << result.errorSumSquares << "\n";
    }
    return os.str();
}

} // namespace rigor::stats
