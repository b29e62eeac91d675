/**
 * @file
 * Static analysis of two-level experimental design matrices.
 *
 * The Plackett-Burman effect estimates are only meaningful when the
 * design is a balanced orthogonal ±1 matrix, and the paper's
 * de-aliasing argument additionally requires the second half of the
 * folded design to be the exact sign-flipped complement of the first
 * (Table 3). A silently malformed matrix still produces numbers —
 * just statistically meaningless ones — so these checks run before
 * any simulation and report *every* violated property, not only the
 * first.
 */

#ifndef RIGOR_CHECK_DESIGN_CHECK_HH
#define RIGOR_CHECK_DESIGN_CHECK_HH

#include "check/diagnostic.hh"
#include "doe/design_matrix.hh"

namespace rigor::check
{

/** What checkDesignMatrix() should demand of the matrix. */
struct DesignCheckOptions
{
    /**
     * Expected factor (column) count; 0 skips the check. The PB
     * experiment passes 43 so a truncated or padded matrix cannot
     * silently misassign factor columns.
     */
    std::size_t expectedFactors = 0;
    /**
     * Require the exact foldover layout: an even number of runs with
     * row r + R/2 the sign-flip of row r for every r in the first
     * half.
     */
    bool requireFoldover = false;
};

/**
 * Check the statistical properties of a constructed design matrix:
 * column balance, pairwise orthogonality, duplicate (perfectly
 * aliased) columns, PB shape (run count a multiple of four — of the
 * *base* design when requireFoldover is set — and at most runs - 1
 * factors), and — when requested — the exact foldover complement.
 * Returns true when this call reported no error.
 */
bool checkDesignMatrix(const doe::DesignMatrix &design,
                       const DesignCheckOptions &options,
                       DiagnosticSink &sink,
                       const SourceContext &base = {});

} // namespace rigor::check

#endif // RIGOR_CHECK_DESIGN_CHECK_HH
