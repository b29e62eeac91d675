#include "cli_options.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace rigor::tools
{

const char *
ArgCursor::valueFor(const char *flag)
{
    if (done()) {
        std::fprintf(stderr, "%s: %s needs an argument\n",
                     _program.c_str(), flag);
        return nullptr;
    }
    return _argv[_index++];
}

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

bool
parseFaultKind(const std::string &text, exec::FaultKind &kind)
{
    using exec::FaultKind;
    if (text == "transient")
        kind = FaultKind::Transient;
    else if (text == "permanent")
        kind = FaultKind::Permanent;
    else if (text == "hang")
        kind = FaultKind::Hang;
    else if (text == "segfault")
        kind = FaultKind::Segfault;
    else if (text == "abort")
        kind = FaultKind::Abort;
    else if (text == "busy-loop")
        kind = FaultKind::BusyLoop;
    else if (text == "alloc-bomb")
        kind = FaultKind::AllocBomb;
    else if (text == "kill")
        kind = FaultKind::KillWorker;
    else if (text == "drop-connection")
        kind = FaultKind::DropConnection;
    else if (text == "stall-heartbeat")
        kind = FaultKind::StallHeartbeat;
    else if (text == "corrupt-frame")
        kind = FaultKind::CorruptFrame;
    else if (text == "partition")
        kind = FaultKind::Partition;
    else if (text == "reconnect-storm")
        kind = FaultKind::ReconnectStorm;
    else if (text == "slow-loris")
        kind = FaultKind::SlowLoris;
    else if (text == "duplicate-session")
        kind = FaultKind::DuplicateSession;
    else if (text == "token-mismatch")
        kind = FaultKind::TokenMismatch;
    else
        return false;
    return true;
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
parseEndpoint(const std::string &text, std::string &host,
              std::uint16_t &port)
{
    if (text.empty())
        return false;
    const std::size_t colon = text.rfind(':');
    std::string host_part;
    std::string port_part;
    if (colon != std::string::npos) {
        host_part = text.substr(0, colon);
        port_part = text.substr(colon + 1);
        if (host_part.empty() || port_part.empty())
            return false;
    } else if (text.find_first_not_of("0123456789") ==
               std::string::npos) {
        port_part = text; // bare number: a port on the current host
    } else {
        host_part = text; // bare name: a host on the current port
    }
    if (!host_part.empty())
        host = host_part;
    if (!port_part.empty()) {
        unsigned raw = 0;
        if (!parseUnsigned(port_part.c_str(), raw) || raw > 65535)
            return false;
        port = static_cast<std::uint16_t>(raw);
    }
    return true;
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

CampaignCliOptions::Match
CampaignCliOptions::tryParse(ArgCursor &args, const std::string &arg)
{
    // Accept both "--flag value" and "--flag=value": split an inline
    // value off first, then match on the bare flag name.
    std::string name = arg;
    std::string inline_value;
    bool has_inline = false;
    if (arg.starts_with("--")) {
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            inline_value = arg.substr(eq + 1);
            has_inline = true;
        }
    }

    /** The flag's value: the inline "=value" part, or the next argv
     *  entry. Returns nullptr (reported) when neither exists. */
    const auto value = [&](const char *flag) -> const char * {
        if (has_inline)
            return inline_value.c_str();
        return args.valueFor(flag);
    };
    const auto unsigned_flag = [&](const char *flag,
                                   unsigned &out) -> Match {
        const char *v = value(flag);
        if (v == nullptr || !parseUnsigned(v, out)) {
            if (v != nullptr)
                std::fprintf(stderr, "%s: bad %s value %s\n",
                             args.program().c_str(), flag, v);
            return Match::Error;
        }
        return Match::Consumed;
    };
    const auto uint64_flag = [&](const char *flag,
                                 std::uint64_t &out) -> Match {
        const char *v = value(flag);
        if (v == nullptr || !parseUint64(v, out)) {
            if (v != nullptr)
                std::fprintf(stderr, "%s: bad %s value %s\n",
                             args.program().c_str(), flag, v);
            return Match::Error;
        }
        return Match::Consumed;
    };
    const auto path_flag = [&](const char *flag,
                               std::string &out) -> Match {
        const char *v = value(flag);
        if (v == nullptr)
            return Match::Error;
        out = v;
        return Match::Consumed;
    };
    /** A flag that takes no value rejects an inline "=value". */
    const auto bare = [&](bool &out) -> Match {
        if (has_inline) {
            std::fprintf(stderr, "%s: %s takes no value\n",
                         args.program().c_str(), name.c_str());
            return Match::Error;
        }
        out = true;
        return Match::Consumed;
    };

    if (name == "--threads")
        return unsigned_flag("--threads", threads);
    if (name == "--no-foldover") {
        bool off = false;
        const Match m = bare(off);
        if (m == Match::Consumed)
            foldover = false;
        return m;
    }
    if (name == "--skip-preflight") {
        bool on = false;
        const Match m = bare(on);
        if (m == Match::Consumed)
            skipPreflight = true;
        return m;
    }
    if (name == "--retries")
        return unsigned_flag("--retries", retries);
    if (name == "--backoff-ms")
        return unsigned_flag("--backoff-ms", backoffMs);
    if (name == "--backoff-jitter") {
        const char *v = value("--backoff-jitter");
        if (v == nullptr || !parseDouble(v, backoffJitter) ||
            backoffJitter < 0.0 || backoffJitter > 1.0) {
            if (v != nullptr)
                std::fprintf(stderr,
                             "%s: bad --backoff-jitter value %s "
                             "(want [0, 1])\n",
                             args.program().c_str(), v);
            return Match::Error;
        }
        return Match::Consumed;
    }
    if (name == "--backoff-seed")
        return uint64_flag("--backoff-seed", backoffSeed);
    if (name == "--deadline-ms")
        return unsigned_flag("--deadline-ms", deadlineMs);
    if (name == "--isolation") {
        const char *v = value("--isolation");
        if (v == nullptr)
            return Match::Error;
        remote = std::string(v) == "remote";
        if (!remote && !exec::parseIsolationMode(v, isolation)) {
            std::fprintf(stderr,
                         "%s: unknown --isolation mode %s "
                         "(want thread | process | remote)\n",
                         args.program().c_str(), v);
            return Match::Error;
        }
        return Match::Consumed;
    }
    if (name == "--listen") {
        const char *v = value("--listen");
        if (v == nullptr)
            return Match::Error;
        std::uint16_t port = static_cast<std::uint16_t>(listenPort);
        if (!parseEndpoint(v, listenAddress, port)) {
            std::fprintf(stderr,
                         "%s: bad --listen endpoint %s "
                         "(want HOST:PORT, HOST, or PORT)\n",
                         args.program().c_str(), v);
            return Match::Error;
        }
        listenPort = port;
        remote = true;
        return Match::Consumed;
    }
    if (name == "--workers")
        return unsigned_flag("--workers", remoteWorkers);
    if (name == "--lease-ms") {
        const Match m = unsigned_flag("--lease-ms", leaseMs);
        if (m == Match::Consumed && leaseMs == 0) {
            std::fprintf(stderr,
                         "%s: --lease-ms must be positive\n",
                         args.program().c_str());
            return Match::Error;
        }
        return m;
    }
    if (name == "--heartbeat-ms") {
        const Match m = unsigned_flag("--heartbeat-ms", heartbeatMs);
        if (m == Match::Consumed && heartbeatMs == 0) {
            std::fprintf(stderr,
                         "%s: --heartbeat-ms must be positive\n",
                         args.program().c_str());
            return Match::Error;
        }
        return m;
    }
    if (name == "--session-grace-ms")
        return unsigned_flag("--session-grace-ms", sessionGraceMs);
    if (name == "--auth-token-file")
        return path_flag("--auth-token-file", authTokenFile);
    if (name == "--mem-limit-mb") {
        const Match m = uint64_flag("--mem-limit-mb", memLimitMb);
        if (m == Match::Consumed && memLimitMb == 0) {
            std::fprintf(stderr,
                         "%s: --mem-limit-mb must be positive (omit "
                         "the flag to disable the cap)\n",
                         args.program().c_str());
            return Match::Error;
        }
        return m;
    }
    if (name == "--hard-deadline-ms") {
        const Match m =
            unsigned_flag("--hard-deadline-ms", hardDeadlineMs);
        if (m == Match::Consumed && hardDeadlineMs == 0) {
            std::fprintf(stderr,
                         "%s: --hard-deadline-ms must be positive "
                         "(omit the flag to disable the watchdog)\n",
                         args.program().c_str());
            return Match::Error;
        }
        return m;
    }
    if (name == "--sample") {
        bool on = false;
        const Match m = bare(on);
        if (m == Match::Consumed)
            sample = true;
        return m;
    }
    if (name == "--sample-unit") {
        const Match m = uint64_flag("--sample-unit", sampleUnit);
        if (m == Match::Consumed && sampleUnit == 0) {
            std::fprintf(stderr,
                         "%s: --sample-unit must be positive\n",
                         args.program().c_str());
            return Match::Error;
        }
        return m;
    }
    if (name == "--sample-warmup")
        return uint64_flag("--sample-warmup", sampleWarmup);
    if (name == "--sample-interval") {
        const Match m =
            uint64_flag("--sample-interval", sampleInterval);
        if (m == Match::Consumed && sampleInterval == 0) {
            std::fprintf(stderr,
                         "%s: --sample-interval must be positive\n",
                         args.program().c_str());
            return Match::Error;
        }
        return m;
    }
    if (name == "--sample-rel-error") {
        const char *v = value("--sample-rel-error");
        if (v == nullptr || !parseDouble(v, sampleRelError) ||
            sampleRelError <= 0.0 || sampleRelError >= 1.0) {
            if (v != nullptr)
                std::fprintf(stderr,
                             "%s: bad --sample-rel-error value %s "
                             "(want (0, 1))\n",
                             args.program().c_str(), v);
            return Match::Error;
        }
        return Match::Consumed;
    }
    if (name == "--sample-confidence") {
        const char *v = value("--sample-confidence");
        if (v == nullptr || !parseDouble(v, sampleConfidence) ||
            sampleConfidence <= 0.0 || sampleConfidence >= 1.0) {
            if (v != nullptr)
                std::fprintf(stderr,
                             "%s: bad --sample-confidence value %s "
                             "(want (0, 1))\n",
                             args.program().c_str(), v);
            return Match::Error;
        }
        return Match::Consumed;
    }
    if (name == "--collect") {
        bool on = false;
        const Match m = bare(on);
        if (m == Match::Consumed)
            collect = true;
        return m;
    }
    if (name == "--degrade") {
        const char *v = value("--degrade");
        if (v == nullptr)
            return Match::Error;
        const std::string mode = v;
        if (mode == "abort") {
            degrade = check::DegradationMode::Abort;
        } else if (mode == "drop-benchmark") {
            degrade = check::DegradationMode::DropBenchmark;
        } else {
            std::fprintf(stderr, "%s: unknown --degrade mode %s\n",
                         args.program().c_str(), mode.c_str());
            return Match::Error;
        }
        return Match::Consumed;
    }
    if (name == "--replicates")
        return unsigned_flag("--replicates", replicates);
    if (name == "--bootstrap-iters") {
        const Match m =
            uint64_flag("--bootstrap-iters", bootstrapIters);
        if (m == Match::Consumed && bootstrapIters == 0) {
            std::fprintf(stderr,
                         "%s: --bootstrap-iters must be positive\n",
                         args.program().c_str());
            return Match::Error;
        }
        return m;
    }
    if (name == "--bootstrap-seed")
        return uint64_flag("--bootstrap-seed", bootstrapSeed);
    if (name == "--stability-out")
        return path_flag("--stability-out", stabilityOut);
    if (name == "--journal")
        return path_flag("--journal", journalPath);
    if (name == "--metrics-out")
        return path_flag("--metrics-out", metricsOut);
    if (name == "--trace-out")
        return path_flag("--trace-out", traceOut);
    if (name == "--manifest-out")
        return path_flag("--manifest-out", manifestOut);
    if (name == "--bench-out")
        return path_flag("--bench-out", benchOut);
    return Match::NotMine;
}

exec::FaultPolicy
CampaignCliOptions::faultPolicy() const
{
    exec::FaultPolicy policy;
    policy.maxAttempts = retries + 1;
    policy.backoffBase = std::chrono::milliseconds(backoffMs);
    policy.backoffJitter = backoffJitter;
    policy.backoffSeed = backoffSeed;
    policy.attemptDeadline = std::chrono::milliseconds(deadlineMs);
    policy.collectFailures = collect;
    return policy;
}

void
CampaignCliOptions::apply(exec::CampaignOptions &campaign) const
{
    campaign.threads = threads;
    campaign.foldover = foldover;
    campaign.skipPreflight = skipPreflight;
    campaign.faultPolicy = faultPolicy();
    campaign.degradation = degrade;
    campaign.isolation = isolation;
    campaign.memLimitMb = memLimitMb;
    campaign.hardDeadline = std::chrono::milliseconds(hardDeadlineMs);
    campaign.remoteWorkers = remoteWorkers;
    campaign.sampling.enabled = sample;
    campaign.sampling.unitInstructions = sampleUnit;
    campaign.sampling.warmupInstructions = sampleWarmup;
    campaign.sampling.intervalInstructions = sampleInterval;
    campaign.sampling.targetRelativeError = sampleRelError;
    campaign.sampling.confidence = sampleConfidence;
    campaign.replication.replicates = replicates;
    campaign.replication.bootstrap.iterations = bootstrapIters;
    campaign.replication.bootstrap.seed = bootstrapSeed;
}

const char *
CampaignCliOptions::usageText()
{
    return
        "  --threads N            worker threads (0 = hardware)\n"
        "  --no-foldover          44-run base design instead of 88\n"
        "  --skip-preflight       skip the pre-flight static analysis\n"
        "  --retries N            extra attempts per job (default 0)\n"
        "  --backoff-ms N         base backoff, doubled per retry\n"
        "  --backoff-jitter F     randomize away up to F of each\n"
        "                         backoff (seeded, replayable; [0,1])\n"
        "  --backoff-seed N       seed of the jitter stream\n"
        "  --deadline-ms N        per-attempt deadline (0 = none)\n"
        "  --isolation MODE       thread | process | remote; process\n"
        "                         forks sandbox workers that survive\n"
        "                         crash, OOM, and hangs; remote shards\n"
        "                         cells across a TCP worker fleet\n"
        "  --mem-limit-mb N       per-sandbox memory cap in MiB\n"
        "  --hard-deadline-ms N   SIGKILL a sandbox attempt past this\n"
        "  --listen HOST:PORT     remote: controller listen endpoint\n"
        "                         (implies --isolation remote; port 0\n"
        "                         = kernel-assigned)\n"
        "  --workers N            remote: wait for N workers before\n"
        "                         the campaign starts\n"
        "  --lease-ms N           remote: worker-silence budget before\n"
        "                         its cells are reclaimed and requeued\n"
        "                         (default 10000)\n"
        "  --heartbeat-ms N       remote: worker heartbeat cadence\n"
        "                         (default 1000; must stay under half\n"
        "                         the lease)\n"
        "  --session-grace-ms N   remote: hold a disconnected worker's\n"
        "                         leases this long awaiting a session\n"
        "                         resume with the same id (default\n"
        "                         5000; 0 = reclaim immediately)\n"
        "  --auth-token-file PATH remote: shared fleet token; workers\n"
        "                         must answer an HMAC challenge before\n"
        "                         any lease is granted\n"
        "  --collect              quarantine failures, don't fail fast\n"
        "  --degrade MODE         abort | drop-benchmark (with --collect)\n"
        "  --sample               SMARTS-style sampled simulation:\n"
        "                         periodic detailed units with CPI CIs\n"
        "                         instead of full detailed runs\n"
        "  --sample-unit N        measured instructions per unit\n"
        "                         (default 1000)\n"
        "  --sample-warmup N      detailed warm-up before each unit\n"
        "                         (default 2000)\n"
        "  --sample-interval N    one unit every N instructions\n"
        "                         (default 10000)\n"
        "  --sample-rel-error F   target relative CI half-width on\n"
        "                         CPI (default 0.05)\n"
        "  --sample-confidence F  CI confidence level (default 0.95)\n"
        "  --replicates R         run R independently seeded workload\n"
        "                         realizations and bootstrap rank CIs\n"
        "                         (0 = single realization; the\n"
        "                         pre-flight floor is 3)\n"
        "  --bootstrap-iters N    bootstrap resamples (default 2000)\n"
        "  --bootstrap-seed N     seed of the deterministic bootstrap\n"
        "  --stability-out PATH   write the stability report JSON\n"
        "  --journal PATH         crash-safe journal; rerun to resume\n"
        "  --metrics-out PATH     write the metrics registry as JSON\n"
        "  --trace-out PATH       write a Chrome/Perfetto trace JSON\n"
        "  --manifest-out PATH    write the campaign manifest (JSONL)\n"
        "  --bench-out PATH       write a wall-time/throughput report\n";
}

} // namespace rigor::tools
