#include "cli_options.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace rigor::tools
{

namespace
{

/** strtoull with whole-string and range enforcement. Rejects a
 *  leading sign: strtoull would silently wrap "-1" to 2^64-1, turning
 *  a typo'd negative into an absurdly large limit. */
bool
parseRaw(const char *text, unsigned long long &out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return errno == 0 && end != nullptr && *end == '\0';
}

} // namespace

bool
parseUnsigned(const char *text, unsigned &out)
{
    unsigned long long raw = 0;
    if (!parseRaw(text, raw) ||
        raw > static_cast<unsigned long long>(~0u))
        return false;
    out = static_cast<unsigned>(raw);
    return true;
}

bool
parseUint64(const char *text, std::uint64_t &out)
{
    unsigned long long raw = 0;
    if (!parseRaw(text, raw))
        return false;
    out = raw;
    return true;
}

bool
parseSize(const char *text, std::size_t &out)
{
    unsigned long long raw = 0;
    if (!parseRaw(text, raw) || raw > SIZE_MAX)
        return false;
    out = static_cast<std::size_t>(raw);
    return true;
}

bool
parseDouble(const char *text, double &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text, &end);
    return errno == 0 && end != nullptr && *end == '\0';
}

namespace
{

/** Every fault-drill kind, in declaration order. */
std::vector<exec::FaultKind>
faultKinds()
{
    std::vector<exec::FaultKind> kinds;
    for (int k = static_cast<int>(exec::FaultKind::Transient);
         k <= static_cast<int>(exec::FaultKind::KillWorker); ++k)
        kinds.push_back(static_cast<exec::FaultKind>(k));
    return kinds;
}

} // namespace

bool
parseFaultKind(const std::string &text, exec::FaultKind &kind)
{
    for (const exec::FaultKind candidate : faultKinds()) {
        if (exec::toString(candidate) == text) {
            kind = candidate;
            return true;
        }
    }
    return false;
}

bool
parseFaultSpec(const std::string &spec, std::string &head,
               unsigned &attempt, exec::FaultKind &kind)
{
    const std::size_t last = spec.rfind(':');
    if (last == std::string::npos || last == 0)
        return false;
    const std::size_t mid = spec.rfind(':', last - 1);
    if (mid == std::string::npos)
        return false;
    head = spec.substr(0, mid);
    const std::string attempt_text =
        spec.substr(mid + 1, last - mid - 1);
    if (head.empty() || attempt_text.empty())
        return false;
    if (!parseUnsigned(attempt_text.c_str(), attempt) || attempt == 0)
        return false;
    return parseFaultKind(spec.substr(last + 1), kind);
}

bool
splitList(const std::string &csv, std::vector<std::string> &out)
{
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string item =
            csv.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (item.empty())
            return false;
        out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return !out.empty();
}

Binder
integer(std::uint64_t max, Bound bound,
        std::function<void(std::uint64_t)> store)
{
    return [max, bound, store = std::move(store)](const char *value,
                                                  std::string &want) {
        std::uint64_t raw = 0;
        if (!parseUint64(value, raw) || raw > max)
            return false;
        if (raw == 0 && bound != Bound::Any) {
            want = bound == Bound::Positive
                       ? "must be positive"
                       : "must be positive; omit the flag to disable";
            return false;
        }
        store(raw);
        return true;
    };
}

Binder
number(std::chrono::milliseconds &out, Bound bound)
{
    return integer(std::numeric_limits<unsigned>::max(), bound,
                   [&out](std::uint64_t v) {
                       out = std::chrono::milliseconds(v);
                   });
}

Binder
number(double &out)
{
    return [&out](const char *value, std::string &) {
        return parseDouble(value, out);
    };
}

Binder
number(double &out, double low, double high, bool open)
{
    return [&out, low, high, open](const char *value,
                                   std::string &want) {
        double v = 0.0;
        const bool outside =
            !parseDouble(value, v) ||
            (open ? v <= low || v >= high : v < low || v > high);
        if (outside) {
            char range[64];
            std::snprintf(range, sizeof(range), "want %c%g, %g%c",
                          open ? '(' : '[', low, high,
                          open ? ')' : ']');
            want = range;
            return false;
        }
        out = v;
        return true;
    };
}

Binder
text(std::string &out)
{
    return [&out](const char *value, std::string &) {
        out = value;
        return true;
    };
}

Binder
set(bool &out, bool value)
{
    return [&out, value](const char *, std::string &) {
        out = value;
        return true;
    };
}

bool
parseFlags(int argc, char **argv, const char *program,
           const FlagTable &table,
           const std::function<void(const std::string &)> &positional)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return false;
        if ((arg.empty() || arg.front() != '-') && positional) {
            positional(arg);
            continue;
        }
        // "--flag=value" carries its value inline.
        const std::size_t eq =
            arg.starts_with("--") ? arg.find('=') : std::string::npos;
        const std::string name = arg.substr(0, eq);
        const auto flag = std::ranges::find(table, name, &Flag::name);
        if (flag == table.end()) {
            std::fprintf(stderr, "%s: unknown option %s\n", program,
                         arg.c_str());
            return false;
        }
        const char *value =
            eq == std::string::npos ? nullptr : argv[i] + eq + 1;
        if (flag->metavar.empty() && value != nullptr) {
            std::fprintf(stderr, "%s: %s takes no value\n", program,
                         name.c_str());
            return false;
        }
        if (!flag->metavar.empty() && value == nullptr) {
            if (i + 1 == argc) {
                std::fprintf(stderr, "%s: %s needs an argument\n",
                             program, name.c_str());
                return false;
            }
            value = argv[++i];
        }
        std::string want;
        if (!flag->bind(value, want)) {
            if (!want.empty())
                want = " (" + want + ")";
            std::fprintf(stderr, "%s: bad %s value %s%s\n", program,
                         name.c_str(), value, want.c_str());
            return false;
        }
    }
    return true;
}

int
printUsage(const char *program, const char *synopsis,
           const FlagTable &table)
{
    static constexpr std::size_t kHelpColumn = 25;
    static constexpr std::size_t kWidth = 79;
    std::string out = std::string("usage: ") + program + " " + synopsis +
                      "\n\noptions:\n";
    const auto entry = [&out](const std::string &left,
                              const std::string &help) {
        // Word-wrap the help into the right-hand column.
        std::string line = "  " + left;
        line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
        std::size_t start = 0;
        while (start < help.size()) {
            std::size_t end = help.find(' ', start);
            if (end == std::string::npos)
                end = help.size();
            const std::string word = help.substr(start, end - start);
            if (line.size() > kHelpColumn &&
                line.size() + 1 + word.size() > kWidth) {
                out += line + "\n";
                line.assign(kHelpColumn, ' ');
            } else if (line.back() != ' ') {
                line += ' ';
            }
            line += word;
            start = end + 1;
        }
        out += line + "\n";
    };
    for (const Flag &flag : table)
        entry(flag.metavar.empty() ? flag.name
                                   : flag.name + " " + flag.metavar,
              flag.help);
    entry("--help", "show this help");
    std::fputs(out.c_str(), stderr);
    return 2;
}

std::string
toString(Isolation isolation)
{
    switch (isolation) {
      case Isolation::Thread:
        return "thread";
      case Isolation::Process:
        return "process";
    }
    return "?";
}

namespace
{

std::string
faultKindNames()
{
    std::string names;
    for (const exec::FaultKind kind : faultKinds()) {
        if (!names.empty())
            names += " | ";
        names += exec::toString(kind);
    }
    return names;
}

} // namespace

FlagTable
campaignFlags(CampaignSetup &setup)
{
    methodology::PbExperimentOptions &run = setup.run;
    exec::CampaignOptions &campaign = run.campaign;
    exec::FaultPolicy &policy = campaign.faultPolicy;
    sample::SamplingOptions &sampling = campaign.sampling;
    stats::ReplicationOptions &replication = setup.replication;

    return {
        {"--workloads", "a,b,c", "benchmarks to run (default: all 13)",
         [&setup](const char *value, std::string &) {
             return splitList(value, setup.workloads);
         }},
        {"--instructions", "N",
         "measured instructions per run (default 20000)",
         number(run.instructionsPerRun)},
        {"--warmup", "N", "warm-up instructions per run",
         number(run.warmupInstructions)},
        {"--threads", "N", "worker threads (0 = hardware)",
         number(campaign.threads)},
        {"--no-foldover", "", "44-run base design instead of 88",
         set(campaign.foldover, false)},
        {"--skip-preflight", "", "skip the pre-flight static analysis",
         set(campaign.skipPreflight)},
        {"--retries", "N", "extra attempts per job (default 0)",
         [&policy](const char *value, std::string &) {
             unsigned retries = 0;
             if (!parseUnsigned(value, retries))
                 return false;
             policy.maxAttempts = retries + 1;
             return true;
         }},
        {"--deadline-ms", "N", "per-attempt deadline (0 = none)",
         number(policy.attemptDeadline)},
        {"--isolation", "MODE",
         "thread | process; process forks sandbox workers that "
         "survive crash, OOM, and hangs",
         oneOf(setup.isolation, {Isolation::Thread, Isolation::Process})},
        {"--mem-limit-mb", "N", "per-sandbox memory cap in MiB",
         number(setup.sandbox.memLimitMb, Bound::PositiveOrOmit)},
        {"--hard-deadline-ms", "N",
         "SIGKILL a sandbox attempt busy past this",
         number(setup.sandbox.hardDeadline, Bound::PositiveOrOmit)},
        {"--collect", "", "quarantine failures, don't fail fast",
         set(policy.collectFailures)},
        {"--degrade", "MODE", "abort | drop-benchmark (with --collect)",
         oneOf(campaign.degradation,
               {check::DegradationMode::Abort,
                check::DegradationMode::DropBenchmark})},
        {"--sample", "",
         "SMARTS-style sampled simulation: periodic detailed units "
         "with CPI CIs instead of full detailed runs",
         set(sampling.enabled)},
        {"--sample-unit", "N",
         "measured instructions per unit (default 1000)",
         number(sampling.unitInstructions, Bound::Positive)},
        {"--sample-warmup", "N",
         "detailed warm-up before each unit (default 2000)",
         number(sampling.warmupInstructions)},
        {"--sample-interval", "N",
         "one unit every N instructions (default 10000)",
         number(sampling.intervalInstructions, Bound::Positive)},
        {"--sample-confidence", "F",
         "CI confidence level (default 0.95)",
         number(sampling.confidence, 0.0, 1.0, true)},
        {"--adaptive-rounds", "N",
         "with --sample: re-run benchmarks whose top-factor effects "
         "are inside their CI with a denser schedule, up to N total "
         "rounds",
         number(setup.adaptiveRounds, Bound::Positive)},
        {"--replicates", "R",
         "run R independently seeded workload realizations and "
         "bootstrap rank CIs (0 = single realization; the pre-flight "
         "floor is 3)",
         number(replication.replicates)},
        {"--bootstrap-iters", "N", "bootstrap resamples (default 2000)",
         number(replication.bootstrap.iterations, Bound::Positive)},
        {"--bootstrap-seed", "N", "seed of the deterministic bootstrap",
         number(replication.bootstrap.seed)},
        {"--stability-out", "PATH", "write the stability report JSON",
         text(setup.stabilityOut)},
        {"--journal", "PATH", "crash-safe journal; rerun to resume",
         text(setup.journal)},
        {"--crash-after", "N", "crash drill: die after N appends",
         [&setup](const char *value, std::string &) {
             std::size_t appends = 0;
             if (!parseSize(value, appends))
                 return false;
             setup.crashAfter = appends;
             return true;
         }},
        {"--inject", "J:A:KIND",
         "fault job J, attempt A (KIND as for --inject-label; the "
         "process kinds need --isolation process)",
         [&setup](const char *value, std::string &) {
             std::string job_text;
             std::size_t job = 0;
             unsigned attempt = 0;
             exec::FaultKind kind{};
             if (!parseFaultSpec(value, job_text, attempt, kind) ||
                 !parseSize(job_text.c_str(), job))
                 return false;
             setup.drills.addFault(job, attempt, kind);
             return true;
         }},
        {"--inject-label", "S:A:KIND",
         "fault attempt A of the jobs whose label contains S (KIND: " +
             faultKindNames() + ")",
         [&setup](const char *value, std::string &) {
             std::string label;
             unsigned attempt = 0;
             exec::FaultKind kind{};
             if (!parseFaultSpec(value, label, attempt, kind))
                 return false;
             setup.drills.addLabelFault(std::move(label), attempt, kind);
             return true;
         }},
        {"--metrics-out", "PATH", "write the metrics registry as JSON",
         text(setup.metricsOut)},
        {"--trace-out", "PATH", "write a Chrome/Perfetto trace JSON",
         text(setup.traceOut)},
        {"--manifest-out", "PATH", "write the campaign manifest (JSONL)",
         text(setup.manifestOut)},
        {"--quiet", "", "suppress the rank table", set(setup.quiet)},
    };
}

} // namespace rigor::tools
