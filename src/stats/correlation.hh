/**
 * @file
 * Correlation coefficients.
 *
 * Spearman rank correlation is the headline metric EXPERIMENTS.md uses
 * to compare our measured Table 9 / Table 12 parameter orderings
 * against the published orderings; it is the Pearson correlation of
 * the rank vectors.
 */

#ifndef RIGOR_STATS_CORRELATION_HH
#define RIGOR_STATS_CORRELATION_HH

#include <span>

namespace rigor::stats
{

/**
 * Pearson product-moment correlation coefficient.
 *
 * Both sequences must have the same non-zero length and non-zero
 * variance.
 */
double pearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

/**
 * Spearman rank correlation coefficient. Ties are handled with
 * midranks, i.e. the coefficient is the Pearson correlation of the
 * rank vectors.
 */
double spearmanCorrelation(std::span<const double> xs,
                           std::span<const double> ys);

} // namespace rigor::stats

#endif // RIGOR_STATS_CORRELATION_HH
