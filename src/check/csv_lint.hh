/**
 * @file
 * Linting of exported CSV design matrices.
 *
 * A design CSV holds one +1/-1 column per factor, optionally
 * preceded by a "run" index column and followed by per-benchmark
 * "<name> cycles" response columns. This lint parses that shape — or
 * any headerless ±1 grid — back into a sign matrix
 * and runs the full design-matrix analysis on it, attaching
 * file:line positions so a bad entry is pinpointed like a compiler
 * error.
 */

#ifndef RIGOR_CHECK_CSV_LINT_HH
#define RIGOR_CHECK_CSV_LINT_HH

#include <string>
#include <vector>

#include "check/design_check.hh"
#include "check/diagnostic.hh"

namespace rigor::check
{

/** One parsed CSV design: sign rows plus their 1-based file lines. */
struct ParsedCsvDesign
{
    std::vector<std::vector<int>> signs;
    /** File line of the first data row (header skipped); 0 if none. */
    std::size_t firstDataLine = 0;
    /** Factor-column names from the header, empty when headerless. */
    std::vector<std::string> factorNames;
};

/**
 * Split one CSV record into fields, honoring RFC-4180 quoting
 * (doubled quotes inside quoted fields).
 */
std::vector<std::string> splitCsvRecord(const std::string &line);

/**
 * Parse CSV text into a sign matrix. A first line with any
 * non-numeric cell is treated as a header; header columns named
 * "run" (case-insensitive) or ending in " cycles" are ignored in
 * every data row. Cells that fail to parse as integers are reported
 * under csv.bad-cell and recorded as 0 so the later ±1 analysis
 * still sees the row.
 */
ParsedCsvDesign parseDesignCsv(const std::string &text,
                               const std::string &filename,
                               DiagnosticSink &sink);

/**
 * Parse and fully analyze a CSV design: structural sign checks plus
 * checkDesignMatrix() under @p options. Returns true when no error
 * was reported.
 */
bool lintDesignCsv(const std::string &text,
                   const std::string &filename,
                   const DesignCheckOptions &options,
                   DiagnosticSink &sink);

} // namespace rigor::check

#endif // RIGOR_CHECK_CSV_LINT_HH
