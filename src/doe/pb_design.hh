/**
 * @file
 * Plackett-Burman saturated design construction [Plackett46].
 *
 * A PB design of size X (X a multiple of 4) studies up to X - 1
 * two-level factors in only X runs. For X = q + 1 with q a prime
 * congruent to 3 (mod 4) the design is cyclic: a generator row of
 * length X - 1 is circularly right-shifted X - 2 times and a final
 * row of all -1 is appended (the construction of the paper's
 * Table 2). The generator rows Plackett and Burman published for
 * these sizes are exactly the quadratic-residue sequences: entry j is
 * +1 iff j = 0 or j is a square modulo q. This module derives those
 * rows arithmetically; it builds no other sizes. Every design the
 * paper uses (X = 8 for Table 2, X = 44 for the screen) is one.
 */

#ifndef RIGOR_DOE_PB_DESIGN_HH
#define RIGOR_DOE_PB_DESIGN_HH

#include <vector>

#include "doe/design_matrix.hh"

namespace rigor::doe
{

/**
 * Number of runs a PB design needs for @p num_factors factors: the
 * next multiple of four strictly greater than the factor count.
 */
unsigned pbRuns(unsigned num_factors);

/**
 * The length X-1 cyclic generator row (+1/-1 entries) for a size-X
 * design. Throws std::invalid_argument unless X - 1 is a prime
 * congruent to 3 (mod 4).
 */
std::vector<int> pbGeneratorRow(unsigned x);

/**
 * Construct the size-X Plackett-Burman design: X runs (rows) by X - 1
 * factors (columns). Throws std::invalid_argument unless X - 1 is a
 * prime congruent to 3 (mod 4) (X = 8, 12, 20, 24, 32, 44, ...).
 *
 * The layout matches the paper exactly: row 0 is the generator, rows
 * 1..X-2 are successive circular right shifts, and row X-1 is all -1.
 */
DesignMatrix pbDesign(unsigned x);

/**
 * Construct the smallest PB design that can accommodate
 * @p num_factors factors: the first constructible size at or above
 * pbRuns(num_factors). Extra columns are "dummy factors": they
 * receive no real parameter, and their apparent effects estimate the
 * design's noise floor (the paper carries two dummy factors through
 * Tables 9 and 12 for exactly this reason).
 */
DesignMatrix pbDesignForFactors(unsigned num_factors);

} // namespace rigor::doe

#endif // RIGOR_DOE_PB_DESIGN_HH
