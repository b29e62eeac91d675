/**
 * @file
 * Descriptive statistics over sequences of doubles.
 *
 * These are the basic building blocks used throughout the library:
 * the ANOVA module needs means and sums of squares, the DoE module
 * needs effect magnitudes, and the report builders need summary
 * statistics of simulation responses.
 */

#ifndef RIGOR_STATS_DESCRIPTIVE_HH
#define RIGOR_STATS_DESCRIPTIVE_HH

#include <span>
#include <vector>

namespace rigor::stats
{

/** Arithmetic mean. Returns 0 for an empty sequence. */
double mean(std::span<const double> xs);

/**
 * Sample variance with Bessel's correction (divides by n - 1).
 * Returns 0 when fewer than two observations are available.
 */
double variance(std::span<const double> xs);

/** Sample standard deviation (square root of variance()). */
double stddev(std::span<const double> xs);

/** Median; averages the two middle elements for even-length inputs. */
double median(std::span<const double> xs);

/** Sum of all elements. */
double sum(std::span<const double> xs);

/**
 * Assign ranks (1 = smallest) to a sequence of values.
 *
 * Ties receive the average of the ranks they would occupy
 * ("midranks"), the convention required by the Spearman rank
 * correlation coefficient.
 *
 * @param xs values to rank
 * @return rank of each element, parallel to @p xs
 */
std::vector<double> ranks(std::span<const double> xs);

} // namespace rigor::stats

#endif // RIGOR_STATS_DESCRIPTIVE_HH
