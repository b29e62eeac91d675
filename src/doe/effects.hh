/**
 * @file
 * Effect estimation for two-level designs (the paper's Table 4).
 *
 * The effect of a factor is the signed sum, over all runs, of the run
 * response multiplied by that factor's +1/-1 level in the run. Only
 * the magnitude of an effect is meaningful for ranking; the sign says
 * merely which level raised the response.
 */

#ifndef RIGOR_DOE_EFFECTS_HH
#define RIGOR_DOE_EFFECTS_HH

#include <span>
#include <vector>

#include "doe/design_matrix.hh"

namespace rigor::doe
{

/**
 * Raw (contrast) effect of every factor column.
 *
 * @param design the design matrix that produced the runs
 * @param responses one response per design row
 * @return one signed effect per design column; for the paper's
 *         Table 4 example this reproduces (-23, -67, -137, 129, -105,
 *         -225, 73)
 */
std::vector<double> computeEffects(const DesignMatrix &design,
                                   std::span<const double> responses);

/**
 * Normalized effects: the raw contrast divided by half the run count,
 * i.e. the average change in response when the factor moves from its
 * low to its high level.
 */
std::vector<double> computeNormalizedEffects(
    const DesignMatrix &design, std::span<const double> responses);

/**
 * Effect of the elementwise product of two factor columns — the
 * two-factor interaction contrast a foldover design can estimate.
 */
double computeInteractionEffect(const DesignMatrix &design,
                                std::span<const double> responses,
                                std::size_t col_a, std::size_t col_b);

} // namespace rigor::doe

#endif // RIGOR_DOE_EFFECTS_HH
