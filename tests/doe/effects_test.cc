#include <gtest/gtest.h>

#include "doe/effects.hh"
#include "doe/foldover.hh"
#include "doe/pb_design.hh"

namespace doe = rigor::doe;

namespace
{

/** The paper's Table 4 responses for the X = 8 design. */
const std::vector<double> table4Responses = {1.0,  9.0, 74.0, 28.0,
                                             3.0,  6.0, 112.0, 84.0};

} // namespace

TEST(Effects, Table4ExampleExact)
{
    // The paper's worked example: effects for parameters A-G must be
    // (-23, -67, -137, 129, -105, -225, 73).
    const doe::DesignMatrix design = doe::pbDesign(8);
    const std::vector<double> effects =
        doe::computeEffects(design, table4Responses);
    EXPECT_EQ(effects,
              (std::vector<double>{-23.0, -67.0, -137.0, 129.0, -105.0,
                                   -225.0, 73.0}));
}

TEST(Effects, Table4MostImportantParameters)
{
    // "the parameters with the most effect are F, C, and D."
    const doe::DesignMatrix design = doe::pbDesign(8);
    const std::vector<double> effects =
        doe::computeEffects(design, table4Responses);
    // |F| > |C| > |D| > all others.
    EXPECT_GT(std::abs(effects[5]), std::abs(effects[2]));
    EXPECT_GT(std::abs(effects[2]), std::abs(effects[3]));
    for (std::size_t i : {0u, 1u, 4u, 6u})
        EXPECT_LT(std::abs(effects[i]), std::abs(effects[3]));
}

TEST(Effects, NormalizedEffectsDivideByHalfRuns)
{
    const doe::DesignMatrix design = doe::pbDesign(8);
    const std::vector<double> raw =
        doe::computeEffects(design, table4Responses);
    const std::vector<double> norm =
        doe::computeNormalizedEffects(design, table4Responses);
    for (std::size_t i = 0; i < raw.size(); ++i)
        EXPECT_DOUBLE_EQ(norm[i], raw[i] / 4.0);
}

TEST(Effects, LinearResponseRecoversCoefficients)
{
    // If the response is a pure linear function of the levels, the
    // normalized effect of each factor is exactly 2x its coefficient
    // (moving low -> high changes the level by 2 units).
    const doe::DesignMatrix design =
        doe::foldover(doe::pbDesign(12));
    const std::vector<double> coeffs = {5.0, 0.0, -3.0, 10.0, 1.0, 0.0,
                                        0.5, -7.0, 2.0, 0.0, 4.0};
    std::vector<double> responses;
    for (std::size_t r = 0; r < design.numRows(); ++r) {
        double y = 100.0;
        for (std::size_t c = 0; c < design.numColumns(); ++c)
            y += coeffs[c] * design.sign(r, c);
        responses.push_back(y);
    }
    const std::vector<double> norm =
        doe::computeNormalizedEffects(design, responses);
    for (std::size_t c = 0; c < coeffs.size(); ++c)
        EXPECT_NEAR(norm[c], 2.0 * coeffs[c], 1e-9) << "col " << c;
}

TEST(Effects, ConstantResponseHasZeroEffects)
{
    const doe::DesignMatrix design = doe::pbDesign(8);
    const std::vector<double> responses(8, 42.0);
    for (double e : doe::computeEffects(design, responses))
        EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(Effects, RejectsWrongResponseCount)
{
    const doe::DesignMatrix design = doe::pbDesign(8);
    const std::vector<double> responses(7, 1.0);
    EXPECT_THROW(doe::computeEffects(design, responses),
                 std::invalid_argument);
}

TEST(Effects, FoldoverIsolatesMainEffectFromInteraction)
{
    // Response = A + (B AND C interaction). In the plain PB design
    // the interaction aliases onto some main effect; after foldover
    // the main-effect estimates are clean.
    const doe::DesignMatrix base = doe::pbDesign(8);
    const doe::DesignMatrix folded = doe::foldover(base);

    const auto response = [](const doe::DesignMatrix &m, std::size_t r) {
        return 10.0 * m.sign(r, 0) +
               4.0 * m.sign(r, 1) * m.sign(r, 2);
    };

    std::vector<double> folded_responses;
    for (std::size_t r = 0; r < folded.numRows(); ++r)
        folded_responses.push_back(response(folded, r));

    const std::vector<double> norm =
        doe::computeNormalizedEffects(folded, folded_responses);
    EXPECT_NEAR(norm[0], 20.0, 1e-9);
    // All other main effects are free of the BC interaction.
    for (std::size_t c = 1; c < norm.size(); ++c)
        EXPECT_NEAR(norm[c], 0.0, 1e-9) << "col " << c;
}

TEST(Effects, InteractionEffectDetectsPlantedInteraction)
{
    const doe::DesignMatrix folded = doe::foldover(doe::pbDesign(8));
    std::vector<double> responses;
    for (std::size_t r = 0; r < folded.numRows(); ++r)
        responses.push_back(5.0 * folded.sign(r, 1) *
                            folded.sign(r, 2));
    const double bc =
        doe::computeInteractionEffect(folded, responses, 1, 2);
    // Contrast = 5 * 16 runs.
    EXPECT_NEAR(bc, 80.0, 1e-9);
    EXPECT_NEAR(doe::computeInteractionEffect(folded, responses, 0, 3),
                0.0, 1e-9);
}

TEST(Effects, InteractionEffectValidatesArguments)
{
    const doe::DesignMatrix design = doe::pbDesign(8);
    const std::vector<double> responses(8, 1.0);
    EXPECT_THROW(
        doe::computeInteractionEffect(design, responses, 0, 9),
        std::out_of_range);
}

