#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "doe/design_matrix.hh"
#include "exec/engine.hh"
#include "exec/journal.hh"
#include "methodology/parameter_space.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace exec = rigor::exec;
namespace methodology = rigor::methodology;
namespace trace = rigor::trace;

namespace
{

/** Fresh per-test journal path under gtest's temp directory. */
std::string
journalPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + name;
    std::remove(path.c_str());
    return path;
}

exec::RunKey
keyFor(const std::string &workload, unsigned rob_entries,
       std::uint64_t instructions = 1000)
{
    exec::RunKey key;
    key.workload = workload;
    key.config = methodology::uniformConfig(doe::Level::Low);
    key.config.robEntries = rob_entries;
    key.instructions = instructions;
    return key;
}

/** A small batch of real jobs over distinct configurations. */
std::vector<exec::SimJob>
realBatch(const trace::WorkloadProfile &workload, std::size_t count)
{
    std::vector<exec::SimJob> jobs;
    for (std::size_t i = 0; i < count; ++i) {
        exec::SimJob job;
        job.workload = &workload;
        job.config = methodology::uniformConfig(doe::Level::Low);
        job.config.robEntries = static_cast<unsigned>(16 + 2 * i);
        job.instructions = 2000;
        job.label = workload.name + ", design row " + std::to_string(i);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

TEST(ResultJournal, RoundTripsResponsesBitExactly)
{
    const std::string path = journalPath("journal_roundtrip");
    const std::vector<double> values = {
        1.0, 1.0 / 3.0, 1234567890123.25, -0.0, 5e-324, 1e17 + 1};
    {
        exec::ResultJournal journal(path);
        for (std::size_t i = 0; i < values.size(); ++i)
            journal.append(keyFor("gzip", 16 + unsigned(i)),
                           values[i]);
        EXPECT_EQ(journal.size(), values.size());
    }
    exec::ResultJournal reopened(path);
    EXPECT_EQ(reopened.loadedRecords(), values.size());
    EXPECT_EQ(reopened.tornRecords(), 0u);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::optional<exec::CellResult> hit =
            reopened.lookup(keyFor("gzip", 16 + unsigned(i)));
        ASSERT_TRUE(hit.has_value()) << "value " << i;
        EXPECT_EQ(hit->cycles, values[i]) << "bit-exact round trip";
        EXPECT_FALSE(hit->sample.has_value());
    }
    EXPECT_FALSE(reopened.lookup(keyFor("mcf", 16)).has_value());
}

TEST(ResultJournal, FirstRecordWinsOnDuplicateKeys)
{
    const std::string path = journalPath("journal_dup");
    exec::ResultJournal journal(path);
    journal.append(keyFor("gzip", 16), 111.0);
    journal.append(keyFor("gzip", 16), 222.0);
    EXPECT_EQ(journal.size(), 1u);
    EXPECT_EQ(journal.lookup(keyFor("gzip", 16))->cycles, 111.0);
    EXPECT_EQ(journal.duplicateRecords(), 0u);

    // A duplicate on disk (which no single writer appends) loads as
    // the first record and is counted.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "r " << keyFor("gzip", 16).toString() << " 333\n";
    }
    exec::ResultJournal reopened(path);
    EXPECT_EQ(reopened.loadedRecords(), 1u);
    EXPECT_EQ(reopened.duplicateRecords(), 1u);
    EXPECT_EQ(reopened.lookup(keyFor("gzip", 16))->cycles, 111.0);
}

TEST(ResultJournal, ToleratesTornFinalRecord)
{
    const std::string path = journalPath("journal_torn");
    {
        exec::ResultJournal journal(path);
        journal.append(keyFor("gzip", 16), 1.0);
        journal.append(keyFor("gzip", 18), 2.0);
    }
    {
        // The on-disk state a mid-write crash leaves: a trailing
        // record prefix with no newline.
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "r deadbeef|1000|0|gzip| 3.";
    }
    exec::ResultJournal reopened(path);
    EXPECT_EQ(reopened.loadedRecords(), 2u);
    EXPECT_EQ(reopened.tornRecords(), 1u);
    EXPECT_EQ(reopened.lookup(keyFor("gzip", 16))->cycles, 1.0);
    EXPECT_EQ(reopened.lookup(keyFor("gzip", 18))->cycles, 2.0);

    // Appending after recovery still works and the file stays sane.
    reopened.append(keyFor("gzip", 20), 3.0);
    exec::ResultJournal third(path);
    // The torn prefix turns the next record's line into garbage; only
    // that one line is sacrificed, later records load fine.
    EXPECT_EQ(third.loadedRecords(), 2u);
    EXPECT_EQ(third.tornRecords(), 1u);
}

TEST(ResultJournal, RejectsForeignFilesAndBadIdentities)
{
    const std::string path = journalPath("journal_foreign");
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a journal\n";
    }
    EXPECT_THROW(exec::ResultJournal{path}, std::runtime_error);

    exec::ResultJournal journal(journalPath("journal_badkey"));
    EXPECT_THROW(journal.append(keyFor("two words", 16), 1.0),
                 std::invalid_argument);
}

TEST(ResultJournal, RejectsAVersionOneJournal)
{
    // A v1 record kept only the cycles; resuming from it would hand
    // sampled cells back without their CIs.
    const std::string path = journalPath("journal_v1");
    {
        std::ofstream out(path, std::ios::binary);
        out << "rigor-journal v1\nr " << keyFor("gzip", 16).toString()
            << " 1000\n";
    }
    EXPECT_THROW(exec::ResultJournal{path}, std::runtime_error);
}

TEST(ResultJournal, SampledRecordRoundTripsEverySummaryField)
{
    rigor::sample::SampleSummary summary;
    summary.units = 7;
    summary.detailedInstructions = 3500;
    summary.measuredInstructions = 1750;
    summary.streamInstructions = 20000;
    summary.cpiMean = 1.0 / 3.0;
    summary.cpiStddev = 0.1 + 0.2;
    summary.ciHalfWidth = 5e-324;
    summary.relativeError = 2.0 / 3.0;
    summary.estimatedCycles = summary.cpiMean * 20000.0;
    exec::CellResult result = exec::CellResult::sampled(summary);
    result.host = "w1";

    const std::string path = journalPath("journal_sampled");
    {
        exec::ResultJournal journal(path);
        journal.append(keyFor("gzip", 16), result);
        const std::optional<exec::CellResult> held =
            journal.lookup(keyFor("gzip", 16));
        ASSERT_TRUE(held.has_value());
        EXPECT_TRUE(held->host.empty()) << "a replay reports no host";
    }
    exec::ResultJournal reopened(path);
    EXPECT_EQ(reopened.tornRecords(), 0u);
    const std::optional<exec::CellResult> hit =
        reopened.lookup(keyFor("gzip", 16));
    ASSERT_TRUE(hit.has_value());
    ASSERT_TRUE(hit->sample.has_value());
    EXPECT_EQ(std::memcmp(&*hit->sample, &summary, sizeof summary), 0)
        << "every field bit-exact";
    EXPECT_EQ(hit->cycles, summary.estimatedCycles);
    EXPECT_TRUE(hit->host.empty());
}

TEST(ResultJournal, CorruptRecordsCountAsTorn)
{
    // Each bad record is counted and skipped instead of replaying a
    // made-up response into the PB effects.
    const std::string good_sampled = keyFor("gzip", 16).toString();
    const std::string good_full = keyFor("gzip", 18).toString();
    const std::string bad = "r " + keyFor("gzip", 20).toString() + ' ';
    const std::string summary = " 4 2000 1000 8000 1.5 0.25 0.125 0.0625 "
                                "12000";
    const std::vector<std::string> corrupt = {
        bad + "nan",
        bad + "inf",
        bad + "-12000",
        bad,                                  // missing cycles
        bad + "12000 7",                      // extra field
        bad + "12000" + summary + " 1",       // extra after the summary
        bad + "12000 4 2000 1000 8000 1.5 0.25 0.125 0.0625", // short
        bad + "12001" + summary,              // estimatedCycles differs
        bad + "12000 -4 2000 1000 8000 1.5 0.25 0.125 0.0625 12000",
        bad + "12000 4 2000 1000 8000 1.5 nan 0.125 0.0625 12000",
        bad + "12000 4 2000 1000 8000 -1.5 0.25 0.125 0.0625 12000",
        "x " + keyFor("gzip", 20).toString() + " 12000", // bad tag
    };
    const std::string path = journalPath("journal_corrupt");
    {
        std::ofstream out(path, std::ios::binary);
        out << "rigor-journal v2\n";
        out << "r " << good_sampled << " 12000" << summary << '\n';
        for (const std::string &line : corrupt)
            out << line << '\n';
        out << "r " << good_full << " 12000\n";
    }
    exec::ResultJournal journal(path);
    EXPECT_EQ(journal.loadedRecords(), 2u);
    EXPECT_EQ(journal.tornRecords(), corrupt.size());
    EXPECT_FALSE(journal.lookup(keyFor("gzip", 20)).has_value());
    const std::optional<exec::CellResult> sampled =
        journal.lookup(keyFor("gzip", 16));
    ASSERT_TRUE(sampled.has_value());
    ASSERT_TRUE(sampled->sample.has_value());
    EXPECT_EQ(sampled->sample->units, 4u);
    EXPECT_EQ(sampled->sample->ciHalfWidth, 0.125);
    const std::optional<exec::CellResult> full =
        journal.lookup(keyFor("gzip", 18));
    ASSERT_TRUE(full.has_value());
    EXPECT_FALSE(full->sample.has_value());
}

TEST(ResultJournal, CrashDrillPersistsExactlyTheCompletedAppends)
{
    const std::string path = journalPath("journal_crash");
    {
        exec::ResultJournal journal(path);
        journal.simulateCrashAfter(2);
        journal.append(keyFor("gzip", 16), 1.0);
        journal.append(keyFor("gzip", 18), 2.0);
        EXPECT_THROW(journal.append(keyFor("gzip", 20), 3.0),
                     exec::SimulatedCrash);
        // A "dead" journal keeps throwing; no further state changes.
        EXPECT_THROW(journal.append(keyFor("gzip", 22), 4.0),
                     exec::SimulatedCrash);
    }
    exec::ResultJournal reopened(path);
    EXPECT_EQ(reopened.loadedRecords(), 2u);
    EXPECT_EQ(reopened.tornRecords(), 1u); // the interrupted write
    EXPECT_TRUE(reopened.lookup(keyFor("gzip", 16)).has_value());
    EXPECT_FALSE(reopened.lookup(keyFor("gzip", 20)).has_value());
}

// ----- Engine integration: journal as second-level cache -----

TEST(ResultJournal, EngineReplaysJournaledRunsBitIdentically)
{
    const std::string path = journalPath("journal_engine");
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = realBatch(w, 6);

    std::vector<double> live;
    {
        exec::ResultJournal journal(path);
        exec::SimulationEngine engine(exec::EngineOptions{2, true});
        engine.setJournal(&journal);
        live = engine.run(jobs);
        EXPECT_EQ(journal.size(), jobs.size());
        EXPECT_EQ(engine.progress().snapshot().journalHits, 0u);
    }

    // A fresh process: new engine, new cache, same journal file.
    exec::ResultJournal journal(path);
    EXPECT_EQ(journal.loadedRecords(), jobs.size());
    exec::SimulationEngine engine(exec::EngineOptions{2, true});
    engine.setJournal(&journal);
    const std::vector<double> replayed = engine.run(jobs);

    EXPECT_EQ(replayed, live) << "journal replay must be bit-identical";
    const exec::ProgressSnapshot snap = engine.progress().snapshot();
    EXPECT_EQ(snap.journalHits, jobs.size());
    EXPECT_EQ(snap.simulatedInstructions, 0u)
        << "a fully journaled batch re-simulates nothing";

    // Replayed results were promoted into the run cache: a second
    // batch is served by the cache, not the journal.
    engine.run(jobs);
    const exec::ProgressSnapshot again = engine.progress().snapshot();
    EXPECT_EQ(again.journalHits, jobs.size());
    EXPECT_EQ(again.cacheHits, jobs.size());
}

TEST(ResultJournal, PartialJournalResumesOnlyRemainingJobs)
{
    const std::string path = journalPath("journal_partial");
    const trace::WorkloadProfile &w = trace::workloadByName("gzip");
    const std::vector<exec::SimJob> jobs = realBatch(w, 6);

    // Journal only the first half (simulating an interrupted run).
    {
        exec::ResultJournal journal(path);
        exec::SimulationEngine engine(exec::EngineOptions{1, true});
        engine.setJournal(&journal);
        const std::vector<exec::SimJob> half(jobs.begin(),
                                             jobs.begin() + 3);
        engine.run(half);
    }

    exec::ResultJournal journal(path);
    exec::SimulationEngine engine(exec::EngineOptions{1, true});
    engine.setJournal(&journal);
    engine.run(jobs);
    const exec::ProgressSnapshot snap = engine.progress().snapshot();
    EXPECT_EQ(snap.journalHits, 3u);
    EXPECT_EQ(snap.simulatedInstructions, 3u * 2000u)
        << "only the unjournaled half simulates";
    EXPECT_EQ(journal.size(), jobs.size())
        << "newly simulated runs were appended for the next resume";
}

// ----- Directory-entry durability of a fresh journal -----

TEST(ResultJournal, FsyncParentDirectoryHandlesRealAndBogusPaths)
{
    // A real directory (gtest's temp dir) syncs fine.
    EXPECT_TRUE(exec::fsyncParentDirectory(journalPath("fsync_probe")));
    // A relative bare filename syncs ".".
    EXPECT_TRUE(exec::fsyncParentDirectory("bare_filename.jsonl"));
    // A missing parent directory is reported, not fatal.
    EXPECT_FALSE(exec::fsyncParentDirectory(
        "/nonexistent-rigor-dir-12345/journal.bin"));
}

TEST(ResultJournal, FreshJournalDurablyCreatesItsDirectoryEntry)
{
    // Regression shape: creating a journal must leave a loadable,
    // version-headed file behind even before the first append — the
    // constructor fsyncs the header *and* the parent directory so a
    // crash immediately after creation cannot lose the name.
    const std::string path = journalPath("journal_fresh_durable");
    {
        exec::ResultJournal journal(path);
        EXPECT_EQ(journal.size(), 0u);
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "journal file vanished after creation";
    exec::ResultJournal reopened(path);
    EXPECT_EQ(reopened.loadedRecords(), 0u);
    EXPECT_EQ(reopened.tornRecords(), 0u);
}
