/**
 * @file
 * Crash-safe append-only journal of completed simulation runs.
 *
 * A campaign that dies halfway — OOM kill, power cut, ctrl-C — must
 * not lose its completed cycles: the paper's methodology needs
 * *complete* PB columns, so partial results are only useful if they
 * can be resumed exactly. Under a "rigor-journal v2" header,
 * ResultJournal appends and fsyncs one record per completed run,
 * "r <key> <cycles>" plus, for a sampled run, the nine SampleSummary
 * fields in declaration order: the run's whole CellResult, keyed by
 * RunKey::toString() and every number in shortest
 * round-trip form. Reopening the journal replays every intact record
 * and counts as torn the write a crash interrupted and any corrupt
 * record (a missing or extra field, a negative or non-finite number,
 * a summary whose estimatedCycles is not the cycles). A resumed
 * campaign so re-simulates only the jobs the journal does not cover
 * and reproduces the uninterrupted result bit for bit, sampling CIs
 * included (the engine writes results by job index).
 *
 * The journal binds to the build that wrote it: record identity uses
 * ProcessorConfig::hash(), which is stable across processes of one
 * toolchain but not a cross-version interchange format. That is the
 * right trade for crash recovery (same binary, restarted); the
 * campaign manifest (obs/manifest.hh) is the record to exchange.
 */

#ifndef RIGOR_EXEC_JOURNAL_HH
#define RIGOR_EXEC_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "exec/fault_policy.hh"
#include "exec/run_cache.hh"

namespace rigor::exec
{

/**
 * Thrown by the journal's crash drill (simulateCrashAfter): models a
 * process dying mid-append. Derives from BatchAbort so the engine
 * cancels the batch and propagates it instead of quarantining the
 * job that happened to be appending.
 */
class SimulatedCrash : public BatchAbort
{
    using BatchAbort::BatchAbort;
};

/**
 * fsync the directory containing @p path, so a just-created file's
 * directory entry itself is durable — fsync on the file alone makes
 * the *data* durable, but a crash before the directory's metadata
 * reaches disk can lose the name, and with it the whole journal.
 * No-op (returns false) when the directory cannot be opened; returns
 * true after a successful directory fsync.
 */
bool fsyncParentDirectory(const std::string &path);

/** Append-only, fsync-per-record result journal. */
class ResultJournal
{
  public:
    /**
     * Open @p path for appending, creating it (with a version
     * header) if absent, and replay every intact existing record.
     * Throws std::runtime_error when the file cannot be opened or
     * carries a foreign header (a v1 journal, which kept only the
     * cycles, included).
     */
    explicit ResultJournal(std::string path);
    ~ResultJournal();

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    const std::string &path() const { return _path; }

    /** Records replayed from disk when the journal was opened. */
    std::size_t loadedRecords() const { return _loadedRecords; }
    /** Torn/corrupt trailing records skipped while loading. */
    std::size_t tornRecords() const { return _tornRecords; }
    /** Intact records skipped while loading because an earlier record
     *  holds their key (no single writer appends one twice). */
    std::size_t duplicateRecords() const { return _duplicateRecords; }
    /** Records currently held (loaded + appended this process). */
    std::size_t size() const;

    /** Replayed result for a run, or nullopt when not journaled. */
    std::optional<CellResult> lookup(const RunKey &key) const;

    /**
     * Persist one completed run: single write() of the full record,
     * then fsync, so a crash leaves at most one torn trailing line.
     * Duplicate keys are ignored (first record wins, matching the
     * RunCache). Throws BatchAbort on I/O failure and SimulatedCrash
     * when the crash drill fires.
     */
    void append(const RunKey &key, const CellResult &result);

    /**
     * Crash drill: after @p appends more successful appends, every
     * further append writes a deliberately torn record prefix (no
     * terminating newline) and throws SimulatedCrash — the on-disk
     * state a real mid-write crash leaves behind. Tests use this to
     * prove kill-and-resume works end to end.
     */
    void simulateCrashAfter(std::size_t appends);

  private:
    void loadExisting(const std::string &text);

    std::string _path;
    int _fd = -1;
    mutable std::mutex _mutex;
    /** Keyed by RunKey::toString(), the stable composed identity. */
    std::unordered_map<std::string, CellResult> _records;
    std::size_t _loadedRecords = 0;
    std::size_t _tornRecords = 0;
    std::size_t _duplicateRecords = 0;
    /** Crash drill: appends remaining before the simulated crash;
     *  SIZE_MAX = disabled, 0 = crashing on every append. */
    std::size_t _appendsUntilCrash;
    /** The drill already wrote its torn record prefix. */
    bool _crashFired = false;
};

} // namespace rigor::exec

#endif // RIGOR_EXEC_JOURNAL_HH
