/**
 * @file
 * rigor_lint — standalone static analysis of experiment outputs.
 *
 * Audits the rank-stability reports that `campaign --stability-out`
 * writes, and self-checks the built-in Tables 6-8 parameter space,
 * printing clang-style diagnostics and exiting non-zero when any
 * error (or, under --Werror, warning) is found:
 *
 *     rigor_lint stability.json             # rank-stability report audit
 *     rigor_lint --audit-parameter-space    # Tables 6-8 self-check
 *     rigor_lint --list-rules               # every rule id + severity
 *
 * Every file argument is read as a stability report. The designs,
 * configurations and workloads a campaign runs are checked by the
 * drivers' in-process pre-flight instead.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/config_check.hh"
#include "check/diagnostic.hh"
#include "check/rule_ids.hh"
#include "check/rule_table.hh"
#include "check/stability_check.hh"
#include "cli_options.hh"

namespace
{

using rigor::check::Diagnostic;
using rigor::check::DiagnosticSink;
using rigor::check::Severity;

constexpr const char *kSynopsis =
    "[options] <stability-report>...\n"
    "\n"
    "Audit rank-stability reports written by campaign --stability-out.";

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
    rigor::check::StabilityCheckOptions stability;
    /** campaign.under-replicated floor for stability reports. */
    unsigned min_replicates = 3;
    bool audit_parameter_space = false;
    bool list_rules = false;
    bool warnings_as_errors = false;
    bool quiet = false;
    std::vector<std::string> files;
    const tools::FlagTable flags = {
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
        argc, argv, "rigor_lint", flags,
        [&](const std::string &path) { files.push_back(path); });
    if (!parsed || (!audit_parameter_space && !list_rules && files.empty()))
        return tools::printUsage(argv[0], kSynopsis, flags);

    if (list_rules)
        return listRules();

    DiagnosticSink sink;

    if (audit_parameter_space)
        rigor::check::checkParameterSpace(sink);

    for (const std::string &path : files) {
        std::string text;
        if (!readFile(path, text)) {
            sink.error(rigor::check::rules::kLintUnreadableFile,
                       "cannot read file", {path, 0, {}});
            continue;
        }
        rigor::check::lintStabilityReport(text, path, stability,
                                          min_replicates, sink);
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
