/**
 * @file
 * Special functions underlying the statistical distributions.
 *
 * Implemented from scratch (Lanczos log-gamma, Lentz continued
 * fractions for the incomplete beta, series/continued fraction for the
 * incomplete gamma) so the library carries no external numeric
 * dependencies. Accuracy targets are ~1e-10 relative error, far beyond
 * what significance testing of simulation results requires.
 */

#ifndef RIGOR_STATS_SPECIAL_FUNCTIONS_HH
#define RIGOR_STATS_SPECIAL_FUNCTIONS_HH

namespace rigor::stats
{

/** Natural log of the gamma function, valid for x > 0. */
double logGamma(double x);

/** Natural log of the beta function B(a, b), a > 0, b > 0. */
double logBeta(double a, double b);

/**
 * Regularized incomplete beta function I_x(a, b).
 *
 * @param a first shape parameter, a > 0
 * @param b second shape parameter, b > 0
 * @param x evaluation point in [0, 1]
 */
double regularizedIncompleteBeta(double a, double b, double x);

/**
 * Regularized lower incomplete gamma function P(a, x).
 *
 * @param a shape parameter, a > 0
 * @param x evaluation point, x >= 0
 */
double regularizedLowerIncompleteGamma(double a, double x);

/** Error function, computed through the incomplete gamma function. */
double errorFunction(double x);

/** Complementary error function. */
double complementaryErrorFunction(double x);

} // namespace rigor::stats

#endif // RIGOR_STATS_SPECIAL_FUNCTIONS_HH
