#include "check/design_check.hh"

#include <string>

#include "check/rule_ids.hh"

namespace rigor::check
{

namespace
{

/** Context for one matrix row: file line when known, else an object
 *  label naming the row. */
SourceContext
rowContext(const SourceContext &base, std::size_t row)
{
    SourceContext ctx = base;
    if (ctx.line != 0)
        ctx.line += row;
    else
        ctx.object = (ctx.object.empty() ? std::string("design")
                                         : ctx.object) +
                     " row " + std::to_string(row);
    return ctx;
}

/** Context naming a column (columns have no file line). */
SourceContext
columnContext(const SourceContext &base, std::size_t col)
{
    SourceContext ctx = base;
    ctx.line = 0;
    ctx.object = (ctx.object.empty() ? std::string("design")
                                     : ctx.object) +
                 " column " + std::to_string(col);
    return ctx;
}

} // namespace

bool
checkDesignMatrix(const doe::DesignMatrix &design,
                  const DesignCheckOptions &options,
                  DiagnosticSink &sink, const SourceContext &base)
{
    const std::size_t before = sink.errorCount();
    const std::size_t rows = design.numRows();
    const std::size_t cols = design.numColumns();

    if (options.expectedFactors != 0 &&
        cols != options.expectedFactors)
        sink.error(rules::kDesignFactorCount,
                   "design has " + std::to_string(cols) +
                       " factor columns, expected " +
                       std::to_string(options.expectedFactors),
                   base);

    // ----- Foldover complement (the paper's Table 3 layout) -----
    if (options.requireFoldover) {
        if (rows % 2 != 0) {
            sink.error(rules::kDesignFoldoverOddRuns,
                       "folded design needs an even run count, got " +
                           std::to_string(rows),
                       base);
        } else {
            const std::size_t half = rows / 2;
            for (std::size_t r = 0; r < half; ++r) {
                std::size_t bad_col = cols;
                for (std::size_t c = 0; c < cols; ++c) {
                    if (design.sign(half + r, c) !=
                        -design.sign(r, c)) {
                        bad_col = c;
                        break;
                    }
                }
                if (bad_col != cols)
                    sink.error(
                        rules::kDesignFoldoverComplement,
                        "row " + std::to_string(half + r) +
                            " is not the sign-flip of row " +
                            std::to_string(r) + " (first differs at "
                            "column " + std::to_string(bad_col) +
                            "); main effects stay aliased with "
                            "two-factor interactions",
                        rowContext(base, half + r));
            }
        }
    }

    // ----- Plackett-Burman shape -----
    const std::size_t base_runs =
        options.requireFoldover && rows % 2 == 0 ? rows / 2 : rows;
    if (base_runs % 4 != 0)
        sink.error(rules::kDesignRunsNotMultipleOfFour,
                   "Plackett-Burman designs need a run count that is "
                   "a multiple of four, got " +
                       std::to_string(base_runs),
                   base);
    if (cols >= base_runs)
        sink.error(rules::kDesignTooManyFactors,
                   "a " + std::to_string(base_runs) +
                       "-run PB design estimates at most " +
                       std::to_string(base_runs - 1) + " factors, got " +
                       std::to_string(cols),
                   base);

    // ----- Column balance -----
    for (std::size_t c = 0; c < cols; ++c) {
        long total = 0;
        for (std::size_t r = 0; r < rows; ++r)
            total += design.sign(r, c);
        if (total != 0)
            sink.error(rules::kDesignColumnBalance,
                       "column is unbalanced (sum of signs " +
                           std::to_string(total) +
                           "); its effect estimate is biased by the "
                           "response mean",
                       columnContext(base, c));
    }

    // ----- Pairwise orthogonality and duplicate columns -----
    for (std::size_t a = 0; a < cols; ++a) {
        for (std::size_t b = a + 1; b < cols; ++b) {
            const long dot = design.columnDot(a, b);
            if (dot == 0)
                continue;
            if (dot == static_cast<long>(rows) ||
                dot == -static_cast<long>(rows))
                sink.error(rules::kDesignDuplicateColumn,
                           "column " + std::to_string(a) +
                               " and column " + std::to_string(b) +
                               (dot > 0 ? " are identical"
                                        : " are exact negations") +
                               "; their factors are perfectly aliased",
                           columnContext(base, b));
            else
                sink.error(rules::kDesignOrthogonality,
                           "column " + std::to_string(a) +
                               " and column " + std::to_string(b) +
                               " are not orthogonal (dot product " +
                               std::to_string(dot) +
                               "); their main effects contaminate "
                               "each other",
                           columnContext(base, b));
        }
    }

    return sink.errorCount() == before;
}

} // namespace rigor::check
