/**
 * @file
 * Full multifactorial analysis of variance for 2^k designs.
 *
 * This is the "Full Multifactorial / ANOVA" design of the paper's
 * Table 1: 2^N simulations, quantifying all parameters and all
 * interactions. The paper's recommended workflow (section 4.1) first
 * screens with a Plackett-Burman design, then runs this analysis over
 * the few critical parameters.
 *
 * The implementation follows the classical treatment in [Lilja00],
 * "Measuring Computer Performance": contrasts via Yates' algorithm,
 * sums of squares from contrasts and allocation of variation.
 */

#ifndef RIGOR_STATS_ANOVA_HH
#define RIGOR_STATS_ANOVA_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rigor::stats
{

/** One row of a 2^k ANOVA table (a main effect or an interaction). */
struct AnovaRow
{
    /** Bitmask of participating factors (bit j = factor j). */
    std::uint32_t mask = 0;
    /** Human-readable label, e.g. "ROB" or "ROB*L2Lat". */
    std::string label;
    /** Effect: average change in response when the subset flips low->high. */
    double effect = 0.0;
    /** Sum of squares attributed to this term. */
    double sumSquares = 0.0;
    /** Fraction of total variation explained (0..1). */
    double variationExplained = 0.0;
};

/** Complete result of a 2^k factorial analysis. */
struct AnovaResult
{
    unsigned numFactors = 0;
    /** All 2^k - 1 effect rows, in Yates (standard-order) index order. */
    std::vector<AnovaRow> rows;
    /** Grand mean of all observations. */
    double grandMean = 0.0;
    /** Total sum of squares (about the grand mean). */
    double totalSumSquares = 0.0;

    /** Rows sorted by descending variation explained. */
    std::vector<AnovaRow> rowsBySignificance() const;

    /** Find a row by label; throws if absent. */
    const AnovaRow &row(const std::string &label) const;
};

/**
 * Analyze an unreplicated 2^k design.
 *
 * @param factor_names name of each of the k factors
 * @param responses 2^k responses in standard order (bit j of the index
 *        set means factor j at its high level)
 */
AnovaResult analyzeFactorial(std::span<const std::string> factor_names,
                             std::span<const double> responses);

/** Render an ANOVA table as fixed-width text for reports. */
std::string formatAnovaTable(const AnovaResult &result);

} // namespace rigor::stats

#endif // RIGOR_STATS_ANOVA_HH
