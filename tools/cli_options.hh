/**
 * @file
 * Declarative command-line flags for the rigor tools.
 *
 * Every tool declares its flags once, in a FlagTable. An entry is a
 * name, a value placeholder, a help line and a Binder; the binder
 * checks the value with the strict parse* functions below (which
 * reject signs, trailing garbage and out-of-range numbers instead of
 * truncating) and writes it straight into the options struct the
 * library consumes: methodology::PbExperimentOptions,
 * proc::ProcWorkerPool::Options or the check:: lint options. There is
 * no CLI-side mirror of those structs to copy across. The one choice
 * the library has no field for is where attempts run (Isolation): the
 * tool builds that executor itself and attaches it to its engine.
 *
 * parseFlags() is the one argv loop of every tool: it accepts both
 * "--flag value" and "--flag=value" for every flag, and words the
 * missing-value, unexpected-value, bad-value and unknown-option
 * errors identically everywhere. printUsage() renders each tool's
 * help from the same table, so the help cannot drift from the flags.
 * Campaign's whole table is defined here, so the unit tests parse it
 * directly.
 */

#ifndef RIGOR_TOOLS_CLI_OPTIONS_HH
#define RIGOR_TOOLS_CLI_OPTIONS_HH

#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/fault_injection.hh"
#include "exec/proc/worker_pool.hh"
#include "methodology/pb_experiment.hh"
#include "stats/bootstrap.hh"

namespace rigor::tools
{

/** Strict numeric parsers: entire string or failure. */
bool parseUnsigned(const char *text, unsigned &out);
bool parseUint64(const char *text, std::uint64_t &out);
bool parseSize(const char *text, std::size_t &out);
bool parseDouble(const char *text, double &out);

/** Split "a,b,c" into non-empty items; false on empty items/input. */
bool splitList(const std::string &csv,
               std::vector<std::string> &out);

/** Parse a fault-drill kind by its exec::toString(FaultKind) name. */
bool parseFaultKind(const std::string &text, exec::FaultKind &kind);

/** Parse "head:attempt:kind", splitting on the LAST two colons so
 *  the head (a label substring) may itself contain colons. */
bool parseFaultSpec(const std::string &spec, std::string &head,
                    unsigned &attempt, exec::FaultKind &kind);

/**
 * Checks one flag's value and stores it. @p value is null for a
 * switch. On rejection it returns false and may set @p want to what
 * a valid value looks like, which the error message quotes.
 */
using Binder = std::function<bool(const char *value, std::string &want)>;

/** One command-line flag. */
struct Flag
{
    /** "--name". */
    std::string name;
    /** Value placeholder in the help ("N", "PATH"); empty marks a
     *  switch, which takes no value. */
    std::string metavar;
    std::string help;
    Binder bind;
};

using FlagTable = std::vector<Flag>;

/** What a numeric flag accepts besides a well-formed number. */
enum class Bound
{
    Any,
    Positive,
    /** Positive; leaving the flag out is how to disable the feature. */
    PositiveOrOmit,
};

/** Unsigned integer of at most @p max; @p store receives it. */
Binder integer(std::uint64_t max, Bound bound,
               std::function<void(std::uint64_t)> store);

template <std::unsigned_integral T>
Binder
number(T &out, Bound bound = Bound::Any)
{
    return integer(std::numeric_limits<T>::max(), bound,
                   [&out](std::uint64_t v) { out = static_cast<T>(v); });
}

/** Milliseconds, spelled as an unsigned (32-bit) count. */
Binder number(std::chrono::milliseconds &out, Bound bound = Bound::Any);

/** Any double. */
Binder number(double &out);

/** A double in [low, high], or in (low, high) when @p open. */
Binder number(double &out, double low, double high, bool open);

/** Any string, e.g. a path. */
Binder text(std::string &out);

/** A switch: sets @p out to @p value. */
Binder set(bool &out, bool value = true);

/** An enum value named by its toString(). */
template <class Enum>
Binder
oneOf(Enum &out, std::initializer_list<Enum> values)
{
    return [&out, choices = std::vector<Enum>(values)](
               const char *value, std::string &want) {
        for (const Enum choice : choices) {
            const std::string name = toString(choice);
            if (name == value) {
                out = choice;
                return true;
            }
            want += want.empty() ? "want " : " | ";
            want += name;
        }
        return false;
    };
}

/**
 * Parse argv against @p table. Arguments not starting with '-' go to
 * @p positional, or are unknown options when it is empty. Returns
 * false after printing the reason on stderr, and (silently) on
 * --help / -h; the caller then prints the usage and exits 2.
 */
bool parseFlags(int argc, char **argv, const char *program,
                const FlagTable &table,
                const std::function<void(const std::string &)>
                    &positional = {});

/**
 * Print "usage: <program> <synopsis>" and the help of every flag in
 * @p table to stderr. Returns 2, the tools' usage-error exit code.
 */
int printUsage(const char *program, const char *synopsis,
               const FlagTable &table);

/** Where a tool runs its simulation attempts. */
enum class Isolation
{
    /** In-process, on the engine's worker threads. */
    Thread,
    /** In forked sandbox workers (exec::proc::ProcWorkerPool). */
    Process,
};

/** Display name ("thread" / "process"). */
std::string toString(Isolation isolation);

/**
 * Everything campaign's flags configure. The experiment and the
 * sandbox options are the library's own structs, bound flag by flag;
 * the other fields are what the tool itself owns.
 */
struct CampaignSetup
{
    /** The CLI default that differs from the library's:
     *  20k-instruction runs. */
    CampaignSetup() { run.instructionsPerRun = 20000; }

    methodology::PbExperimentOptions run;
    /** --isolation. */
    Isolation isolation = Isolation::Thread;
    /** --mem-limit-mb and --hard-deadline-ms; used under Process. */
    exec::proc::ProcWorkerPool::Options sandbox;
    exec::FaultInjector drills;
    /** --inject-random RATE:SEED, planned once the design size is
     *  known. */
    std::optional<std::pair<double, std::uint64_t>> randomDrills;
    std::optional<std::size_t> crashAfter;
    std::vector<std::string> workloads;
    unsigned adaptiveRounds = 0;
    /** --replicates and the bootstrap flags; replicates != 0 runs
     *  runReplicatedPbExperiment. */
    stats::ReplicationOptions replication;
    std::string journal;
    std::string metricsOut;
    std::string traceOut;
    std::string manifestOut;
    std::string stabilityOut;
    bool quiet = false;
};

/** campaign's flag table, binding into @p setup. */
FlagTable campaignFlags(CampaignSetup &setup);

} // namespace rigor::tools

#endif // RIGOR_TOOLS_CLI_OPTIONS_HH
