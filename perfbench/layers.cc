/**
 * @file
 * The traced per-layer split of one workload's campaign.
 *
 * The campaign is run once with the library's own metrics and trace
 * sinks attached (its phase and per-job spans land in the same trace
 * file). Then each layer is called on its own from here, with a span
 * around every call, on the same seeded suite and design rows:
 *
 *  - trace generation: a SyntheticTraceGenerator drained into a vector;
 *  - the memory hierarchy: that stream's fetch-block and data accesses
 *    replayed through a standalone MemorySystem;
 *  - the timing core: construction, then a run fed from the pre-built
 *    vector, so timing cost is separated from generation cost;
 *  - engine overhead: the campaign's jobs through a SimulationEngine
 *    whose attempt executor returns at once (queue and run-cache
 *    keys), once bare and once with an fsync'ing result journal;
 *  - the journal: fsync'ed appends on their own;
 *  - transport: JobRequest/JobResult frames over a pipe (the sandbox
 *    path) and over a localhost TCP connection (the fleet path);
 *  - pre-flight and the effects/rank/aggregate analysis.
 *
 * Where each layer should show end to end: trace generation and the
 * timing core in campaign_s of screen; core construction and engine
 * overhead in short. The journal, the pipe and the TCP round trip
 * belong to journaled, process-isolated and fleet campaigns, which no
 * end-to-end workload runs: on a shared host, fsync latency moved a
 * journaled short campaign by 0.38 of its median across seeds, and
 * the time left for a sandboxed screen in a run did not fit enough
 * campaigns for a steady median.
 *
 * Timed spans are leaves, so a layer's self time is its span total.
 * A decomposed cell's spans name the cell as their parent.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "bench.hh"
#include "doe/effects.hh"
#include "doe/ranking.hh"
#include "exec/engine.hh"
#include "exec/journal.hh"
#include "exec/net/socket.hh"
#include "exec/net/wire.hh"
#include "exec/proc/protocol.hh"
#include "methodology/parameter_space.hh"
#include "methodology/rank_table.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/core.hh"
#include "sim/memory_system.hh"
#include "trace/generator.hh"
#include "trace/vector_source.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;

/** Trace lane of the benchmark's own spans (the engine's job spans
 *  use lanes 0..threads). */
constexpr std::uint32_t kLane = 100;

/** Per-layer span totals plus a Chrome trace of every span. */
class SpanLog
{
  public:
    explicit SpanLog(rigor::obs::TraceWriter &out) : _out(out) {}

    /** Times one call into a layer, from construction to scope end. */
    class Span
    {
      public:
        Span(SpanLog &log, std::string layer, std::string parent)
            : _log(log), _layer(std::move(layer)),
              _parent(std::move(parent)),
              _beginMicros(log._out.nowMicros()), _begin(Clock::now())
        {
        }
        ~Span()
        {
            const std::chrono::duration<double> elapsed =
                Clock::now() - _begin;
            _log.record(_layer, _parent, _beginMicros, elapsed.count());
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        SpanLog &_log;
        std::string _layer;
        std::string _parent;
        std::uint64_t _beginMicros;
        Clock::time_point _begin;
    };

    double seconds(const std::string &layer) const
    {
        const auto it = _seconds.find(layer);
        return it == _seconds.end() ? 0.0 : it->second;
    }

  private:
    void record(const std::string &layer, const std::string &parent,
                std::uint64_t begin_micros, double seconds)
    {
        _seconds[layer] += seconds;
        rigor::obs::TraceWriter::Args args;
        args.emplace_back("parent", parent);
        _out.addCompleteEvent(layer, "perfbench", begin_micros,
                              static_cast<std::uint64_t>(seconds * 1e6),
                              kLane, std::move(args));
    }

    rigor::obs::TraceWriter &_out;
    std::map<std::string, double> _seconds;
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Repeat @p op until @p budget seconds and @p min_ops calls have
 *  passed; returns the mean seconds per call. */
template <typename Op>
double
timePerOp(SpanLog &log, const std::string &layer, double budget,
          unsigned min_ops, Op op)
{
    unsigned ops = 0;
    const double before = log.seconds(layer);
    const Clock::time_point start = Clock::now();
    while (ops < min_ops || secondsSince(start) < budget) {
        SpanLog::Span span(log, layer, "probes");
        op(ops);
        ++ops;
    }
    return (log.seconds(layer) - before) / ops;
}

/** Memory accesses the core would make for @p stream, replayed
 *  through a standalone hierarchy; returns the access count. */
std::uint64_t
replayMemory(const rigor::sim::ProcessorConfig &config,
             const std::vector<rigor::trace::Instruction> &stream)
{
    rigor::sim::MemorySystem memory(config);
    const std::uint64_t block_mask =
        ~(std::uint64_t{config.l1i.blockBytes} - 1);
    std::uint64_t last_block = ~std::uint64_t{0};
    std::uint64_t cycle = 0;
    std::uint64_t accesses = 0;
    for (const rigor::trace::Instruction &inst : stream) {
        ++cycle;
        if ((inst.pc & block_mask) != last_block) {
            last_block = inst.pc & block_mask;
            cycle += memory.instructionFetch(cycle, inst.pc);
            ++accesses;
        }
        if (inst.op == rigor::trace::OpClass::Load ||
            inst.op == rigor::trace::OpClass::Store) {
            memory.dataAccess(cycle, inst.memAddr,
                              inst.op == rigor::trace::OpClass::Store);
            ++accesses;
        }
    }
    return accesses;
}

/** Simulated statistics of the decomposed cells (first pass only, so
 *  they are exact for a seed). */
struct SimulatedCounts
{
    std::uint64_t instructions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
};

struct Cell
{
    std::size_t bench = 0;
    std::size_t row = 0;
};

/** Two seeded design rows per benchmark. */
std::vector<Cell>
decompositionCells(std::size_t benchmarks, std::size_t rows,
                   std::uint64_t seed)
{
    std::uint64_t state = seed ^ 0x6c61796572730000ULL;
    std::vector<Cell> cells;
    for (unsigned pass = 0; pass < 2; ++pass)
        for (std::size_t bench = 0; bench < benchmarks; ++bench)
            cells.push_back({bench, splitmix(state) % rows});
    return cells;
}

/** Echo peer of the pipe probe: answers each JobRequest frame with a
 *  JobResult frame until the request pipe closes. */
void
pipeEcho(int requests, int replies)
{
    std::vector<std::byte> frame;
    while (exec::proc::readFrame(requests, frame)) {
        exec::proc::Reader in(frame);
        const exec::proc::JobRequest request =
            exec::proc::JobRequest::deserialize(in);
        exec::proc::JobResult result;
        result.status = exec::proc::ResultStatus::Ok;
        result.cycles = static_cast<double>(request.instructions);
        exec::proc::Writer out;
        result.serialize(out);
        exec::proc::writeFrame(replies, out.bytes());
    }
}

/** Worker side of the wire probe: connects, then answers each
 *  JobAssign with a JobDone until the controller side closes. */
void
wireEcho(std::uint16_t port)
{
    const exec::net::OwnedFd conn =
        exec::net::connectTcp("127.0.0.1", port);
    std::vector<std::byte> payload;
    while (exec::net::recvMessage(conn.get(), payload)) {
        exec::proc::Reader in(payload);
        if (exec::net::readType(in) != exec::net::MsgType::JobAssign)
            throw std::runtime_error("wire probe: unexpected message");
        const auto lease = in.pod<std::uint64_t>();
        const exec::proc::JobRequest request =
            exec::proc::JobRequest::deserialize(in);
        exec::proc::JobResult result;
        result.status = exec::proc::ResultStatus::Ok;
        result.cycles = static_cast<double>(request.instructions);
        exec::proc::Writer out;
        out.pod(lease);
        result.serialize(out);
        exec::net::sendMessage(conn.get(), exec::net::MsgType::JobDone,
                               out.bytes());
    }
}

/** Runs @p body on a thread; join() rethrows what it threw. */
class Peer
{
  public:
    template <typename Body>
    explicit Peer(Body body)
        : _thread([this, body]() {
              try {
                  body();
              } catch (...) {
                  _error = std::current_exception();
              }
          })
    {
    }
    ~Peer()
    {
        if (_thread.joinable())
            _thread.join();
    }
    Peer(const Peer &) = delete;
    Peer &operator=(const Peer &) = delete;

    void join()
    {
        _thread.join();
        if (_error)
            std::rethrow_exception(_error);
    }

  private:
    std::exception_ptr _error;
    std::thread _thread;
};

/** Closes @c fd when the scope ends, on the error path too. */
struct CloseOnExit
{
    exec::net::OwnedFd &fd;
    ~CloseOnExit() { fd.reset(); }
};

double
pipeRoundTrip(SpanLog &log, const exec::proc::JobRequest &request)
{
    int up[2];
    int down[2];
    if (::pipe2(up, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe2 failed");
    exec::net::OwnedFd up_read(up[0]);
    exec::net::OwnedFd up_write(up[1]);
    if (::pipe2(down, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe2 failed");
    exec::net::OwnedFd down_read(down[0]);
    exec::net::OwnedFd down_write(down[1]);

    exec::proc::Writer frame;
    request.serialize(frame);
    double per_trip = 0.0;
    {
        Peer echo([&up_read, &down_write]() {
            // Closing the replies tells the caller the echo is gone.
            const CloseOnExit close_replies{down_write};
            pipeEcho(up_read.get(), down_write.get());
        });
        // Closing the requests ends the echo loop before the join.
        const CloseOnExit close_requests{up_write};

        std::vector<std::byte> reply;
        per_trip = timePerOp(log, "pipe_roundtrip", 0.25, 64,
                             [&](unsigned) {
                                 exec::proc::writeFrame(up_write.get(),
                                                        frame.bytes());
                                 if (!exec::proc::readFrame(
                                         down_read.get(), reply))
                                     throw std::runtime_error(
                                         "pipe probe: echo closed");
                             });
        up_write.reset();
        echo.join();
    }
    return per_trip;
}

double
wireRoundTrip(SpanLog &log, const exec::proc::JobRequest &request)
{
    exec::net::OwnedFd listener = exec::net::listenTcp("127.0.0.1", 0);
    const std::uint16_t port = exec::net::boundPort(listener.get());

    exec::proc::Writer body;
    body.pod(std::uint64_t{1});
    request.serialize(body);
    double per_trip = 0.0;
    {
        Peer worker([port]() { wireEcho(port); });
        exec::net::OwnedFd conn;
        // Shutting the sockets down releases a worker blocked in
        // connect or recv, on the error path too.
        struct Release
        {
            exec::net::OwnedFd &listener;
            exec::net::OwnedFd &conn;
            ~Release()
            {
                exec::net::shutdownSocket(conn.get());
                conn.reset();
                exec::net::shutdownSocket(listener.get());
            }
        } release{listener, conn};
        pollfd pending{listener.get(), POLLIN, 0};
        if (::poll(&pending, 1, 5000) != 1)
            throw std::runtime_error("wire probe: worker never connected");
        conn = exec::net::acceptClient(listener.get());
        if (!conn.valid())
            throw std::runtime_error("wire probe: accept failed");

        std::vector<std::byte> reply;
        per_trip = timePerOp(
            log, "wire_roundtrip", 0.25, 16, [&](unsigned) {
                exec::net::sendMessage(conn.get(),
                                       exec::net::MsgType::JobAssign,
                                       body.bytes());
                if (!exec::net::recvMessage(conn.get(), reply))
                    throw std::runtime_error("wire probe: worker closed");
            });
        exec::net::shutdownSocket(conn.get());
        conn.reset();
        worker.join();
    }
    return per_trip;
}

std::vector<exec::SimJob>
campaignJobs(const WorkloadSpec &spec,
             std::span<const rigor::trace::WorkloadProfile> suite,
             const rigor::doe::DesignMatrix &design)
{
    std::vector<exec::SimJob> jobs;
    for (const rigor::trace::WorkloadProfile &profile : suite)
        for (std::size_t row = 0; row < design.numRows(); ++row) {
            exec::SimJob job;
            job.workload = &profile;
            job.config = methodology::configForLevels(design.row(row));
            job.instructions = spec.instructions;
            job.label = profile.name + ", design row " +
                        std::to_string(row);
            jobs.push_back(std::move(job));
        }
    return jobs;
}

} // namespace

std::vector<Metric>
measureLayers(const WorkloadSpec &spec, std::uint64_t seed,
              double seconds, const std::string &scratch_dir,
              const std::string &trace_path, Verdict &verdict)
{
    const Clock::time_point window = Clock::now();
    const Prepared prepared = prepare(spec, seed);
    const std::vector<rigor::trace::WorkloadProfile> &suite =
        prepared.suite;
    rigor::obs::TraceWriter trace;
    rigor::obs::MetricsRegistry registry;
    SpanLog log(trace);

    {
        SpanLog::Span span(log, "preflight", "run");
        preflight(spec, suite, prepared.design);
    }

    // The campaign itself, with the library's sinks attached.
    methodology::PbExperimentOptions options = campaignOptions(spec);
    options.campaign.trace = &trace;
    options.campaign.metrics = &registry;
    const std::string journal_path = scratch_dir + "/layers.journal";
    methodology::PbExperimentResult result;
    {
        SpanLog::Span span(log, "traced_campaign", "run");
        result = methodology::runPbExperiment(suite, options);
    }
    std::uint64_t digest = 0;
    checkCampaign(result, suite.size(), digest, verdict);
    checkAgainstReference(prepared, result, verdict);

    {
        SpanLog::Span span(log, "analysis", "run");
        std::vector<std::vector<double>> effects;
        for (std::size_t b = 0; b < result.responses.size(); ++b) {
            std::vector<double> all = rigor::doe::computeEffects(
                result.design, result.responses[b]);
            all.resize(methodology::numFactors);
            if (rigor::doe::rankByMagnitude(all) != result.ranks[b])
                verdict.problem(suite[b].name + ": re-ranked effects "
                                "disagree with the campaign's ranks");
            effects.push_back(std::move(all));
        }
        const auto summaries = rigor::doe::aggregateRanks(
            methodology::factorNames(), effects);
        if (methodology::rankTableDigest(summaries) !=
            methodology::rankTableDigest(result.summaries))
            verdict.problem("re-ranked responses disagree with the "
                            "campaign's rank table");
    }

    // Engine overhead: the campaign's jobs with an executor that
    // returns at once.
    const std::vector<exec::SimJob> jobs =
        campaignJobs(spec, suite, result.design);
    const auto engine_per_cell = [&](const std::string &layer,
                                     bool with_journal) {
        return timePerOp(log, layer, 0.25, 3, [&](unsigned) {
                   exec::SimulationEngine engine(exec::EngineOptions{
                       kThreads, true,
                       [](const exec::SimJob &job,
                          const exec::AttemptContext &) {
                           return static_cast<double>(job.instructions);
                       }});
                   std::filesystem::remove(journal_path);
                   std::optional<exec::ResultJournal> journal;
                   if (with_journal) {
                       journal.emplace(journal_path);
                       engine.setJournal(&*journal);
                   }
                   engine.run(jobs);
               }) /
               static_cast<double>(jobs.size());
    };
    const double engine_cell = engine_per_cell("engine", false);
    const double engine_journal_cell =
        engine_per_cell("engine_journal", true);

    std::filesystem::remove(journal_path);
    double journal_append = 0.0;
    {
        exec::ResultJournal journal(journal_path);
        journal_append =
            timePerOp(log, "journal_append", 0.1, 32, [&](unsigned i) {
                exec::RunKey key;
                key.workload = "probe";
                key.config = jobs[i % jobs.size()].config;
                key.instructions = i + 1;
                journal.append(key, 1.0);
            });
    }
    std::filesystem::remove(journal_path);

    exec::proc::JobRequest request;
    request.profile = suite.front();
    request.config = jobs.front().config;
    request.instructions = spec.instructions;
    request.label = jobs.front().label;
    const double pipe_trip = pipeRoundTrip(log, request);
    const double wire_trip = wireRoundTrip(log, request);

    // Generation, memory hierarchy, and timing core, cell by cell, for
    // the rest of the window (at least one pass).
    const std::vector<Cell> cells =
        decompositionCells(suite.size(), result.design.numRows(), seed);
    SimulatedCounts counts;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    std::uint64_t cores = 0;
    for (unsigned pass = 0; pass == 0 || secondsSince(window) < seconds;
         ++pass) {
        for (const Cell &cell : cells) {
            const rigor::trace::WorkloadProfile &profile =
                suite[cell.bench];
            const rigor::sim::ProcessorConfig config =
                methodology::configForLevels(result.design.row(cell.row));
            const std::string label =
                profile.name + ", design row " + std::to_string(cell.row);
            std::vector<rigor::trace::Instruction> stream;
            {
                SpanLog::Span span(log, "trace_gen", label);
                rigor::trace::SyntheticTraceGenerator generator(
                    profile, spec.instructions);
                stream.reserve(spec.instructions);
                rigor::trace::Instruction inst;
                while (generator.next(inst))
                    stream.push_back(inst);
            }
            instructions += stream.size();
            {
                SpanLog::Span span(log, "memory", label);
                accesses += replayMemory(config, stream);
            }
            std::optional<rigor::sim::SuperscalarCore> core;
            {
                SpanLog::Span span(log, "core_build", label);
                core.emplace(config);
            }
            ++cores;
            double response = 0.0;
            {
                SpanLog::Span span(log, "timing_core", label);
                rigor::trace::VectorTraceSource source(std::move(stream));
                response = static_cast<double>(
                    core->run(source).measuredCycles());
            }
            if (pass != 0)
                continue;
            if (response != result.responses[cell.bench][cell.row])
                verdict.problem(label + ": core fed from a vector "
                                        "disagrees with the campaign");
            counts.instructions += spec.instructions;
            counts.mispredicts += core->stats().branchMispredicts;
            counts.l1iMisses += core->memory().l1i().stats().misses;
            counts.l1dMisses += core->memory().l1d().stats().misses;
            counts.l2Misses += core->memory().l2().stats().misses;
        }
    }

    trace.writeTo(trace_path);

    const double kinstr = static_cast<double>(counts.instructions) / 1e3;
    const double traced_s = log.seconds("traced_campaign");
    return {
        {"traced_campaign_s", traced_s, "s"},
        {"preflight_ms", log.seconds("preflight") * 1e3, "ms"},
        {"analysis_ms", log.seconds("analysis") * 1e3, "ms"},
        {"trace_gen_ns_per_instr",
         log.seconds("trace_gen") / static_cast<double>(instructions) * 1e9,
         "ns"},
        {"memory_ns_per_access",
         log.seconds("memory") / static_cast<double>(accesses) * 1e9,
         "ns"},
        {"core_build_us",
         log.seconds("core_build") / static_cast<double>(cores) * 1e6,
         "us"},
        {"timing_core_ns_per_instr",
         log.seconds("timing_core") / static_cast<double>(instructions) *
             1e9,
         "ns"},
        {"engine_us_per_cell", engine_cell * 1e6, "us"},
        {"engine_journal_us_per_cell", engine_journal_cell * 1e6, "us"},
        {"journal_append_us", journal_append * 1e6, "us"},
        {"pipe_roundtrip_us", pipe_trip * 1e6, "us"},
        {"wire_roundtrip_us", wire_trip * 1e6, "us"},
        {"engine_busy_fraction",
         registry.gauge("engine.workers.busy_fraction").value(), "ratio"},
        {"cells_decomposed", static_cast<double>(cores), "count"},
        {"mispredicts_per_kinstr",
         static_cast<double>(counts.mispredicts) / kinstr, "1/kinstr"},
        {"l1i_misses_per_kinstr",
         static_cast<double>(counts.l1iMisses) / kinstr, "1/kinstr"},
        {"l1d_misses_per_kinstr",
         static_cast<double>(counts.l1dMisses) / kinstr, "1/kinstr"},
        {"l2_misses_per_kinstr",
         static_cast<double>(counts.l2Misses) / kinstr, "1/kinstr"},
    };
}

} // namespace perfbench
