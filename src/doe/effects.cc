#include "doe/effects.hh"

#include <stdexcept>

namespace rigor::doe
{

std::vector<double>
computeEffects(const DesignMatrix &design,
               std::span<const double> responses)
{
    if (responses.size() != design.numRows())
        throw std::invalid_argument(
            "computeEffects: need one response per design row");

    std::vector<double> effects(design.numColumns(), 0.0);
    for (std::size_t r = 0; r < design.numRows(); ++r)
        for (std::size_t c = 0; c < design.numColumns(); ++c)
            effects[c] += design.sign(r, c) * responses[r];
    return effects;
}

std::vector<double>
computeNormalizedEffects(const DesignMatrix &design,
                         std::span<const double> responses)
{
    std::vector<double> effects = computeEffects(design, responses);
    const double half_runs = static_cast<double>(design.numRows()) / 2.0;
    for (double &e : effects)
        e /= half_runs;
    return effects;
}

double
computeInteractionEffect(const DesignMatrix &design,
                         std::span<const double> responses,
                         std::size_t col_a, std::size_t col_b)
{
    if (responses.size() != design.numRows())
        throw std::invalid_argument(
            "computeInteractionEffect: need one response per design row");
    if (col_a >= design.numColumns() || col_b >= design.numColumns())
        throw std::out_of_range(
            "computeInteractionEffect: column out of range");

    double effect = 0.0;
    for (std::size_t r = 0; r < design.numRows(); ++r)
        effect +=
            design.sign(r, col_a) * design.sign(r, col_b) * responses[r];
    return effect;
}

} // namespace rigor::doe
