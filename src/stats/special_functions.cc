#include "stats/special_functions.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rigor::stats
{

namespace
{

// Lanczos approximation coefficients (g = 7, n = 9), giving ~15
// significant digits for real arguments.
constexpr double lanczosG = 7.0;
constexpr double lanczosCoeffs[] = {
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
};

constexpr double betaCfEpsilon = 1e-15;
constexpr int betaCfMaxIterations = 500;
constexpr double gammaEpsilon = 1e-15;
constexpr int gammaMaxIterations = 500;

/**
 * Modified Lentz evaluation of the continued fraction for the
 * incomplete beta function (Numerical-Recipes style formulation).
 */
double
incompleteBetaContinuedFraction(double a, double b, double x)
{
    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;

    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::abs(d) < std::numeric_limits<double>::min())
        d = std::numeric_limits<double>::min();
    d = 1.0 / d;
    double h = d;

    for (int m = 1; m <= betaCfMaxIterations; ++m) {
        const double m_d = static_cast<double>(m);
        const double m2 = 2.0 * m_d;

        // Even step.
        double aa = m_d * (b - m_d) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < std::numeric_limits<double>::min())
            d = std::numeric_limits<double>::min();
        c = 1.0 + aa / c;
        if (std::abs(c) < std::numeric_limits<double>::min())
            c = std::numeric_limits<double>::min();
        d = 1.0 / d;
        h *= d * c;

        // Odd step.
        aa = -(a + m_d) * (qab + m_d) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::abs(d) < std::numeric_limits<double>::min())
            d = std::numeric_limits<double>::min();
        c = 1.0 + aa / c;
        if (std::abs(c) < std::numeric_limits<double>::min())
            c = std::numeric_limits<double>::min();
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::abs(del - 1.0) < betaCfEpsilon)
            return h;
    }
    throw std::runtime_error(
        "incompleteBetaContinuedFraction: failed to converge");
}

/** Series expansion for P(a, x), best for x < a + 1. */
double
lowerGammaSeries(double a, double x)
{
    double ap = a;
    double term = 1.0 / a;
    double total = term;
    for (int n = 0; n < gammaMaxIterations; ++n) {
        ap += 1.0;
        term *= x / ap;
        total += term;
        if (std::abs(term) < std::abs(total) * gammaEpsilon) {
            return total * std::exp(-x + a * std::log(x) - logGamma(a));
        }
    }
    throw std::runtime_error("lowerGammaSeries: failed to converge");
}

/** Continued fraction for Q(a, x), best for x >= a + 1. */
double
upperGammaContinuedFraction(double a, double x)
{
    double b = x + 1.0 - a;
    double c = 1.0 / std::numeric_limits<double>::min();
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= gammaMaxIterations; ++i) {
        const double an = -static_cast<double>(i) * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < std::numeric_limits<double>::min())
            d = std::numeric_limits<double>::min();
        c = b + an / c;
        if (std::abs(c) < std::numeric_limits<double>::min())
            c = std::numeric_limits<double>::min();
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::abs(del - 1.0) < gammaEpsilon) {
            return h * std::exp(-x + a * std::log(x) - logGamma(a));
        }
    }
    throw std::runtime_error(
        "upperGammaContinuedFraction: failed to converge");
}

} // namespace

double
logGamma(double x)
{
    if (x <= 0.0)
        throw std::invalid_argument("logGamma: argument must be positive");

    if (x < 0.5) {
        // Reflection formula keeps the Lanczos series in its accurate
        // region for small arguments.
        return std::log(M_PI / std::sin(M_PI * x)) - logGamma(1.0 - x);
    }

    const double z = x - 1.0;
    double series = lanczosCoeffs[0];
    for (int i = 1; i < 9; ++i)
        series += lanczosCoeffs[i] / (z + static_cast<double>(i));

    const double t = z + lanczosG + 0.5;
    return 0.5 * std::log(2.0 * M_PI) + (z + 0.5) * std::log(t) - t +
           std::log(series);
}

double
logBeta(double a, double b)
{
    return logGamma(a) + logGamma(b) - logGamma(a + b);
}

double
regularizedIncompleteBeta(double a, double b, double x)
{
    if (a <= 0.0 || b <= 0.0)
        throw std::invalid_argument(
            "regularizedIncompleteBeta: shape parameters must be positive");
    if (x < 0.0 || x > 1.0)
        throw std::invalid_argument(
            "regularizedIncompleteBeta: x must be in [0, 1]");

    if (x == 0.0)
        return 0.0;
    if (x == 1.0)
        return 1.0;

    const double front = std::exp(a * std::log(x) + b * std::log(1.0 - x) -
                                  logBeta(a, b));

    // Use the symmetry relation to keep the continued fraction in its
    // rapidly converging region.
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * incompleteBetaContinuedFraction(a, b, x) / a;
    return 1.0 -
           front * incompleteBetaContinuedFraction(b, a, 1.0 - x) / b;
}

double
regularizedLowerIncompleteGamma(double a, double x)
{
    if (a <= 0.0)
        throw std::invalid_argument(
            "regularizedLowerIncompleteGamma: a must be positive");
    if (x < 0.0)
        throw std::invalid_argument(
            "regularizedLowerIncompleteGamma: x must be non-negative");
    if (x == 0.0)
        return 0.0;
    if (x < a + 1.0)
        return lowerGammaSeries(a, x);
    return 1.0 - upperGammaContinuedFraction(a, x);
}

double
errorFunction(double x)
{
    if (x == 0.0)
        return 0.0;
    const double p = regularizedLowerIncompleteGamma(0.5, x * x);
    return x > 0.0 ? p : -p;
}

double
complementaryErrorFunction(double x)
{
    return 1.0 - errorFunction(x);
}

} // namespace rigor::stats
