/**
 * @file
 * Shared command-line plumbing for the rigor tools.
 *
 * campaign and rigor_lint used to each hand-roll the same argv
 * walking, "flag needs an argument" reporting, and numeric parsing —
 * and campaign additionally mapped a dozen flags onto what is now
 * exec::CampaignOptions. This helper owns all of it: ArgCursor is the
 * argv walker, the strict parse* functions reject trailing garbage
 * instead of silently truncating, and CampaignCliOptions is the
 * declarative home of every flag that configures a campaign
 * (execution knobs, fault policy, journal, and the observability
 * sink paths), rendered onto exec::CampaignOptions with apply().
 */

#ifndef RIGOR_TOOLS_CLI_OPTIONS_HH
#define RIGOR_TOOLS_CLI_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/campaign_options.hh"
#include "exec/fault_injection.hh"

namespace rigor::tools
{

/** Forward walker over argv with uniform error reporting. */
class ArgCursor
{
  public:
    ArgCursor(int argc, char **argv, std::string program)
        : _argc(argc), _argv(argv), _program(std::move(program))
    {
    }

    bool done() const { return _index >= _argc; }

    /** Current argument; advances. Only valid when !done(). */
    std::string take() { return _argv[_index++]; }

    /**
     * The value following @p flag, advancing past it; nullptr (with a
     * "<flag> needs an argument" line on stderr) when argv ends.
     */
    const char *valueFor(const char *flag);

    const std::string &program() const { return _program; }

  private:
    int _argc;
    char **_argv;
    int _index = 1;
    std::string _program;
};

/** Strict numeric parsers: entire string or failure. */
bool parseUnsigned(const char *text, unsigned &out);
bool parseUint64(const char *text, std::uint64_t &out);
bool parseSize(const char *text, std::size_t &out);
bool parseDouble(const char *text, double &out);

/** Split "a,b,c" into non-empty items; false on empty items/input. */
bool splitList(const std::string &csv,
               std::vector<std::string> &out);

/**
 * Parse a fault-drill kind name ("transient", "permanent", "hang",
 * "segfault", "abort", "busy-loop", "alloc-bomb", "kill",
 * "drop-connection", "stall-heartbeat", "corrupt-frame",
 * "partition", "reconnect-storm", "slow-loris", "duplicate-session",
 * "token-mismatch"). Shared by campaign's --inject* flags and
 * worker's --inject-label.
 */
bool parseFaultKind(const std::string &text, exec::FaultKind &kind);

/** Parse "head:attempt:kind", splitting on the LAST two colons so
 *  the head (a label substring) may itself contain colons. */
bool parseFaultSpec(const std::string &spec, std::string &head,
                    unsigned &attempt, exec::FaultKind &kind);

/**
 * Parse "HOST:PORT" / "PORT" / "HOST" into its parts (a bare number
 * is a port on the existing @p host; a bare name replaces the host
 * and keeps the existing port). False on a malformed port.
 */
bool parseEndpoint(const std::string &text, std::string &host,
                   std::uint16_t &port);

/**
 * Every command-line flag that configures campaign execution and
 * observability, parsed flag-by-flag with tryParse() and rendered
 * onto exec::CampaignOptions with apply(). The sink *paths* live
 * here; the sink *objects* (registries, writers, manifests) are
 * constructed and attached by the tool, which owns their lifetime.
 */
struct CampaignCliOptions
{
    unsigned threads = 0;
    bool foldover = true;
    bool skipPreflight = false;
    unsigned retries = 0;
    unsigned backoffMs = 0;
    /** Fraction of each backoff randomized away (seeded, in [0,1]). */
    double backoffJitter = 0.0;
    /** Seed of the deterministic backoff jitter stream. */
    std::uint64_t backoffSeed = 0;
    unsigned deadlineMs = 0;
    /** Local attempt isolation: in-process threads, or forked
     *  sandboxes (ignored by a remote campaign). */
    exec::IsolationMode isolation = exec::IsolationMode::Thread;
    /** Remote execution (--listen or --isolation remote): the tool
     *  runs a CampaignController and points the campaign at it. */
    bool remote = false;
    /** Process isolation: per-worker memory cap in MiB (0 = off). */
    std::uint64_t memLimitMb = 0;
    /** Process isolation: hard watchdog deadline in ms (0 = off). */
    unsigned hardDeadlineMs = 0;
    /** Remote: controller listen address (--listen). */
    std::string listenAddress = "127.0.0.1";
    /** Remote: listen port (0 = kernel-assigned). */
    unsigned listenPort = 0;
    /** Remote: expected worker-fleet size (--workers). */
    unsigned remoteWorkers = 0;
    /** Remote: lease duration (worker-silence budget). */
    unsigned leaseMs = 10000;
    /** Remote: advertised heartbeat cadence. */
    unsigned heartbeatMs = 1000;
    /** Remote: how long a disconnected worker's session is
     *  parked awaiting resume (0 = reclaim immediately). */
    unsigned sessionGraceMs = 5000;
    /** Remote: file holding the shared fleet auth token;
     *  empty = authentication off. */
    std::string authTokenFile;
    bool collect = false;
    check::DegradationMode degrade = check::DegradationMode::Abort;
    /** SMARTS-style sampled simulation (off = full detailed runs). */
    bool sample = false;
    /** Measured detailed instructions per sampling unit. */
    std::uint64_t sampleUnit = 1000;
    /** Detailed warm-up instructions before each measured unit. */
    std::uint64_t sampleWarmup = 2000;
    /** Sampling period: one unit every this many instructions. */
    std::uint64_t sampleInterval = 10000;
    /** Target relative CI half-width on CPI (in (0, 1)). */
    double sampleRelError = 0.05;
    /** CI confidence level (in (0, 1)). */
    double sampleConfidence = 0.95;
    /** Workload-generation replicates (0 = single realization). */
    unsigned replicates = 0;
    /** Bootstrap iterations over the replicate responses. */
    std::uint64_t bootstrapIters = 2000;
    /** Seed of the deterministic bootstrap stream. */
    std::uint64_t bootstrapSeed = 0x5eedb007u;
    /** Where to write the stability report JSON; empty = stdout only. */
    std::string stabilityOut;
    std::string journalPath;
    /** Observability output paths; empty = sink disabled. */
    std::string metricsOut;
    std::string traceOut;
    std::string manifestOut;
    std::string benchOut;

    /** Outcome of offering one argument to tryParse(). */
    enum class Match
    {
        /** The flag (and its value, if any) was consumed. */
        Consumed,
        /** Not a shared campaign flag; caller should try its own. */
        NotMine,
        /** A shared flag with a missing/invalid value (reported). */
        Error,
    };

    /**
     * Offer @p arg (already taken from @p args) to the shared flag
     * table. Consumes the flag's value from @p args when it has one;
     * both "--flag value" and "--flag=value" spellings are accepted.
     */
    Match tryParse(ArgCursor &args, const std::string &arg);

    /** The fault policy the flags describe. */
    exec::FaultPolicy faultPolicy() const;

    /**
     * Render the execution knobs (threads, foldover, skipPreflight,
     * fault policy, degradation) onto @p campaign. Sinks, the
     * journal and a remote campaign's controller (built from the
     * --lease-ms/--heartbeat-ms/--session-grace-ms/--auth-token-file
     * values) are attached by the caller.
     */
    void apply(exec::CampaignOptions &campaign) const;

    /** Help text for the shared flags (aligned to the tools' style). */
    static const char *usageText();
};

} // namespace rigor::tools

#endif // RIGOR_TOOLS_CLI_OPTIONS_HH
