#include <gtest/gtest.h>

#include <cmath>

#include "stats/special_functions.hh"

namespace stats = rigor::stats;

TEST(SpecialFunctions, LogGammaMatchesFactorials)
{
    // Gamma(n) = (n-1)!
    EXPECT_NEAR(stats::logGamma(1.0), 0.0, 1e-12);
    EXPECT_NEAR(stats::logGamma(2.0), 0.0, 1e-12);
    EXPECT_NEAR(stats::logGamma(5.0), std::log(24.0), 1e-10);
    EXPECT_NEAR(stats::logGamma(11.0), std::log(3628800.0), 1e-9);
}

TEST(SpecialFunctions, LogGammaHalfInteger)
{
    // Gamma(1/2) = sqrt(pi).
    EXPECT_NEAR(stats::logGamma(0.5), 0.5 * std::log(M_PI), 1e-12);
    // Gamma(3/2) = sqrt(pi)/2.
    EXPECT_NEAR(stats::logGamma(1.5), std::log(std::sqrt(M_PI) / 2.0),
                1e-12);
}

TEST(SpecialFunctions, LogGammaAgreesWithStdLgamma)
{
    for (double x : {0.1, 0.7, 1.3, 3.7, 12.5, 100.0, 1234.5})
        EXPECT_NEAR(stats::logGamma(x), std::lgamma(x),
                    1e-9 * std::max(1.0, std::abs(std::lgamma(x))))
            << "x = " << x;
}

TEST(SpecialFunctions, LogGammaRejectsNonPositive)
{
    EXPECT_THROW(stats::logGamma(0.0), std::invalid_argument);
    EXPECT_THROW(stats::logGamma(-1.5), std::invalid_argument);
}

TEST(SpecialFunctions, LogBetaSymmetry)
{
    EXPECT_NEAR(stats::logBeta(2.5, 3.5), stats::logBeta(3.5, 2.5),
                1e-12);
    // B(1, 1) = 1.
    EXPECT_NEAR(stats::logBeta(1.0, 1.0), 0.0, 1e-12);
    // B(2, 3) = 1/12.
    EXPECT_NEAR(stats::logBeta(2.0, 3.0), std::log(1.0 / 12.0), 1e-10);
}

TEST(SpecialFunctions, IncompleteBetaBoundaries)
{
    EXPECT_DOUBLE_EQ(stats::regularizedIncompleteBeta(2.0, 3.0, 0.0),
                     0.0);
    EXPECT_DOUBLE_EQ(stats::regularizedIncompleteBeta(2.0, 3.0, 1.0),
                     1.0);
}

TEST(SpecialFunctions, IncompleteBetaUniformCase)
{
    // I_x(1, 1) = x.
    for (double x : {0.1, 0.25, 0.5, 0.75, 0.9})
        EXPECT_NEAR(stats::regularizedIncompleteBeta(1.0, 1.0, x), x,
                    1e-12);
}

TEST(SpecialFunctions, IncompleteBetaClosedForm)
{
    // I_x(2, 2) = x^2 (3 - 2x).
    for (double x : {0.2, 0.5, 0.8}) {
        EXPECT_NEAR(stats::regularizedIncompleteBeta(2.0, 2.0, x),
                    x * x * (3.0 - 2.0 * x), 1e-12);
    }
}

TEST(SpecialFunctions, IncompleteBetaSymmetryRelation)
{
    // I_x(a, b) = 1 - I_{1-x}(b, a).
    const double v = stats::regularizedIncompleteBeta(3.0, 7.0, 0.3);
    const double w = stats::regularizedIncompleteBeta(7.0, 3.0, 0.7);
    EXPECT_NEAR(v, 1.0 - w, 1e-12);
}

TEST(SpecialFunctions, IncompleteBetaRejectsBadArguments)
{
    EXPECT_THROW(stats::regularizedIncompleteBeta(0.0, 1.0, 0.5),
                 std::invalid_argument);
    EXPECT_THROW(stats::regularizedIncompleteBeta(1.0, 1.0, 1.5),
                 std::invalid_argument);
}

TEST(SpecialFunctions, LowerGammaExponentialCase)
{
    // P(1, x) = 1 - exp(-x).
    for (double x : {0.1, 1.0, 3.0, 10.0})
        EXPECT_NEAR(stats::regularizedLowerIncompleteGamma(1.0, x),
                    1.0 - std::exp(-x), 1e-12);
}

TEST(SpecialFunctions, LowerGammaBoundaries)
{
    EXPECT_DOUBLE_EQ(stats::regularizedLowerIncompleteGamma(2.5, 0.0),
                     0.0);
    EXPECT_NEAR(stats::regularizedLowerIncompleteGamma(2.0, 100.0), 1.0,
                1e-12);
}

TEST(SpecialFunctions, ErrorFunctionKnownValues)
{
    EXPECT_DOUBLE_EQ(stats::errorFunction(0.0), 0.0);
    EXPECT_NEAR(stats::errorFunction(1.0), 0.8427007929497149, 1e-10);
    EXPECT_NEAR(stats::errorFunction(-1.0), -0.8427007929497149, 1e-10);
    EXPECT_NEAR(stats::errorFunction(2.0), 0.9953222650189527, 1e-10);
}

TEST(SpecialFunctions, ErfAgreesWithStdErf)
{
    for (double x : {-3.0, -0.5, 0.25, 1.5, 4.0})
        EXPECT_NEAR(stats::errorFunction(x), std::erf(x), 1e-10);
}

TEST(SpecialFunctions, ComplementaryErf)
{
    for (double x : {-2.0, 0.0, 0.7, 2.5})
        EXPECT_NEAR(stats::complementaryErrorFunction(x),
                    1.0 - stats::errorFunction(x), 1e-12);
}
