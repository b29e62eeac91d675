/**
 * @file
 * rigor_lint — standalone static analysis of experiment inputs.
 *
 * Lints exported CSV design matrices and "key = value" experiment
 * spec files with the same analyzers the in-process pre-flight runs,
 * printing clang-style diagnostics and exiting non-zero when any
 * error (or, under --Werror, warning) is found:
 *
 *     rigor_lint design.csv                 # ±1 / balance / orthogonality
 *     rigor_lint --foldover design.csv      # + exact foldover complement
 *     rigor_lint --factors 43 design.csv    # + column-count check
 *     rigor_lint experiment.spec            # config / workload / run lint
 *     rigor_lint --audit-parameter-space    # Tables 6-8 self-check
 *     rigor_lint stability.json             # rank-stability report audit
 *     rigor_lint --list-rules               # every rule id + severity
 *
 * Files ending in .csv are linted as designs, files ending in .json
 * as rank-stability reports (--stability-out output), and anything
 * else as a spec. Use --design / --spec / --stability before a file
 * to force its kind.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/config_check.hh"
#include "check/csv_lint.hh"
#include "check/diagnostic.hh"
#include "check/rule_ids.hh"
#include "check/rule_table.hh"
#include "check/spec_lint.hh"
#include "check/stability_check.hh"
#include "cli_options.hh"

namespace
{

using rigor::check::DesignCheckOptions;
using rigor::check::Diagnostic;
using rigor::check::DiagnosticSink;
using rigor::check::Severity;

enum class FileKind
{
    Auto,
    Design,
    Spec,
    Stability,
};

constexpr const char *kSynopsis =
    "[options] <file>...\n"
    "\n"
    "Lint exported CSV design matrices (*.csv) and experiment\n"
    "spec files before any simulation spends cycles on them.";

const char *
severityName(Severity severity)
{
    switch (severity) {
    case Severity::Error:
        return "error";
    case Severity::Warning:
        return "warning";
    case Severity::Note:
        return "note";
    }
    return "unknown";
}

/** --list-rules: the registry, one aligned row per rule. */
int
listRules()
{
    std::size_t width = 0;
    for (const rigor::check::RuleInfo &rule :
         rigor::check::ruleTable())
        width = std::max(width, std::string(rule.id).size());
    for (const rigor::check::RuleInfo &rule :
         rigor::check::ruleTable())
        std::fprintf(stdout, "%-*s  %-7s  %s\n",
                     static_cast<int>(width), rule.id,
                     severityName(rule.defaultSeverity),
                     rule.summary);
    return 0;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace tools = rigor::tools;
    DesignCheckOptions design;
    rigor::check::StabilityCheckOptions stability;
    /** campaign.under-replicated floor for stability reports. */
    unsigned min_replicates = 3;
    bool audit_parameter_space = false;
    bool list_rules = false;
    bool warnings_as_errors = false;
    bool quiet = false;
    /** (kind, path) pairs in command-line order; a kind prefix
     *  applies to the next file only. */
    std::vector<std::pair<FileKind, std::string>> files;
    FileKind next_kind = FileKind::Auto;
    const auto kind_of_next = [&next_kind](FileKind kind) {
        return [&next_kind, kind](const char *, std::string &) {
            next_kind = kind;
            return true;
        };
    };
    const tools::FlagTable flags = {
        {"--design", "", "treat the next file as a CSV design",
         kind_of_next(FileKind::Design)},
        {"--spec", "", "treat the next file as an experiment spec",
         kind_of_next(FileKind::Spec)},
        {"--stability", "", "treat the next file as a stability report",
         kind_of_next(FileKind::Stability)},
        {"--foldover", "", "require the exact foldover complement",
         tools::set(design.requireFoldover)},
        {"--no-pb", "", "drop the Plackett-Burman shape checks",
         tools::set(design.requirePlackettBurman, false)},
        {"--factors", "N", "require exactly N factor columns",
         tools::number(design.expectedFactors)},
        {"--top-factors", "N", "stability rules cover the top N factors",
         tools::number(stability.topFactors)},
        {"--flip-threshold", "X", "rank-flip probability that is an error",
         tools::number(stability.flipThreshold)},
        {"--min-replicates", "N", "replicate floor for stability reports",
         tools::number(min_replicates)},
        {"--audit-parameter-space", "", "lint the built-in Tables 6-8 space",
         tools::set(audit_parameter_space)},
        {"--list-rules", "",
         "print every rule id with its default severity and "
         "description, then exit",
         tools::set(list_rules)},
        {"--Werror", "", "treat warnings as errors",
         tools::set(warnings_as_errors)},
        {"--quiet", "", "print only errors", tools::set(quiet)},
    };
    const bool parsed = tools::parseFlags(
        argc, argv, "rigor_lint", flags, [&](const std::string &path) {
            files.emplace_back(next_kind, path);
            next_kind = FileKind::Auto;
        });
    if (!parsed || (!audit_parameter_space && !list_rules && files.empty()))
        return tools::printUsage(argv[0], kSynopsis, flags);

    if (list_rules)
        return listRules();

    DiagnosticSink sink;

    if (audit_parameter_space)
        rigor::check::checkParameterSpace(sink);

    for (const auto &[kind, path] : files) {
        std::string text;
        if (!readFile(path, text)) {
            sink.error(rigor::check::rules::kLintUnreadableFile,
                       "cannot read file", {path, 0, {}});
            continue;
        }
        FileKind resolved = kind;
        if (resolved == FileKind::Auto) {
            if (path.ends_with(".csv"))
                resolved = FileKind::Design;
            else if (path.ends_with(".json"))
                resolved = FileKind::Stability;
            else
                resolved = FileKind::Spec;
        }
        switch (resolved) {
        case FileKind::Design:
            rigor::check::lintDesignCsv(text, path, design, sink);
            break;
        case FileKind::Stability:
            rigor::check::lintStabilityReport(text, path, stability,
                                              min_replicates, sink);
            break;
        default:
            rigor::check::lintExperimentSpec(text, path, sink);
            break;
        }
    }

    for (const Diagnostic &d : sink.diagnostics()) {
        if (quiet && d.severity != Severity::Error)
            continue;
        std::fprintf(stderr, "%s\n", d.toString().c_str());
    }
    if (!quiet || sink.errorCount() > 0)
        std::fprintf(stderr, "rigor_lint: %s\n",
                     sink.summary().c_str());

    const bool failed =
        sink.errorCount() > 0 ||
        (warnings_as_errors && sink.warningCount() > 0);
    return failed ? 1 : 0;
}
