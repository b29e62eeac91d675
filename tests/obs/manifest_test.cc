/**
 * @file
 * CampaignManifest: golden JSONL record schemas — campaign, cell,
 * phase, and summary lines exactly as downstream tooling parses them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hh"

namespace
{

namespace obs = rigor::obs;

obs::CampaignInfo
sampleCampaign()
{
    obs::CampaignInfo info;
    info.experiment = "pb_screen";
    info.factors = 43;
    info.rows = 88;
    info.foldover = true;
    info.designDigest = "0011223344556677";
    info.workloads = {"gzip", "mcf"};
    info.instructionsPerRun = 200000;
    info.warmupInstructions = 1000;
    return info;
}

TEST(CampaignManifest, GoldenCampaignRecord)
{
    obs::CampaignManifest manifest;
    manifest.beginCampaign(sampleCampaign());
    EXPECT_EQ(manifest.toJsonl(),
              "{\"type\":\"campaign\",\"experiment\":\"pb_screen\","
              "\"factors\":43,\"rows\":88,\"foldover\":true,"
              "\"design_digest\":\"0011223344556677\","
              "\"workloads\":[\"gzip\",\"mcf\"],"
              "\"instructions_per_run\":200000,"
              "\"warmup_instructions\":1000,"
              "\"sampling\":false}\n");
}

TEST(CampaignManifest, GoldenSampledCampaignRecord)
{
    obs::CampaignInfo info = sampleCampaign();
    info.sampling.enabled = true;
    info.sampling.unitInstructions = 250;
    info.sampling.warmupInstructions = 250;
    info.sampling.intervalInstructions = 2500;
    info.sampling.targetRelativeError = 0.05;
    info.sampling.confidence = 0.95;
    obs::CampaignManifest manifest;
    manifest.beginCampaign(info);
    EXPECT_EQ(manifest.toJsonl(),
              "{\"type\":\"campaign\",\"experiment\":\"pb_screen\","
              "\"factors\":43,\"rows\":88,\"foldover\":true,"
              "\"design_digest\":\"0011223344556677\","
              "\"workloads\":[\"gzip\",\"mcf\"],"
              "\"instructions_per_run\":200000,"
              "\"warmup_instructions\":1000,"
              "\"sampling\":true,\"sample_unit\":250,"
              "\"sample_warmup\":250,\"sample_interval\":2500,"
              "\"sample_target_rel_error\":0.05,"
              "\"sample_confidence\":0.95}\n");
}

TEST(CampaignManifest, GoldenSampledCellRecord)
{
    obs::CampaignManifest manifest;
    obs::CellRecord cell;
    cell.benchmark = "gzip";
    cell.row = 7;
    cell.runKey = "deadbeef|200000|0|gzip|s:u250:w250:i2500";
    cell.source = "simulated";
    cell.attempts = 1;
    cell.wallSeconds = 0.25;
    cell.response = 123456;
    cell.sampled = true;
    cell.sampleUnits = 80;
    cell.sampleRelativeError = 0.125;
    cell.sampleCiHalfWidth = 0.25;
    manifest.addCell(cell);
    EXPECT_EQ(manifest.toJsonl(),
              "{\"type\":\"cell\",\"benchmark\":\"gzip\",\"row\":7,"
              "\"key\":\"deadbeef|200000|0|gzip|s:u250:w250:i2500\","
              "\"source\":\"simulated\",\"attempts\":1,"
              "\"wall_seconds\":0.25,\"response\":123456,"
              "\"sampled\":true,\"sample_units\":80,"
              "\"sample_rel_error\":0.125,"
              "\"sample_half_width\":0.25}\n");
}

TEST(CampaignManifest, GoldenCellRecord)
{
    obs::CampaignManifest manifest;
    obs::CellRecord cell;
    cell.benchmark = "gzip";
    cell.row = 7;
    cell.runKey = "deadbeef|200000|0|gzip|";
    cell.source = "simulated";
    cell.attempts = 2;
    cell.wallSeconds = 0.25;
    cell.response = 123456;
    manifest.addCell(cell);
    EXPECT_EQ(manifest.toJsonl(),
              "{\"type\":\"cell\",\"benchmark\":\"gzip\",\"row\":7,"
              "\"key\":\"deadbeef|200000|0|gzip|\","
              "\"source\":\"simulated\",\"attempts\":2,"
              "\"wall_seconds\":0.25,\"response\":123456}\n");
}

TEST(CampaignManifest, FailedCellRendersNanResponseAsNull)
{
    obs::CampaignManifest manifest;
    obs::CellRecord cell;
    cell.benchmark = "mcf";
    cell.source = "failed";
    cell.response = std::nan("");
    manifest.addCell(cell);
    EXPECT_NE(manifest.toJsonl().find("\"response\":null"),
              std::string::npos);
}

TEST(CampaignManifest, GoldenPhaseRecord)
{
    obs::CampaignManifest manifest;
    manifest.addPhase("screen", 1.5);
    EXPECT_EQ(manifest.toJsonl(),
              "{\"type\":\"phase\",\"name\":\"screen\","
              "\"wall_seconds\":1.5}\n");
}

TEST(CampaignManifest, GoldenSummaryRecord)
{
    obs::CampaignManifest manifest;
    obs::SummaryRecord summary;
    summary.execution.runsTotal = 176;
    summary.execution.runsCompleted = 175;
    summary.execution.cacheHits = 88;
    summary.execution.journalHits = 3;
    summary.execution.retries = 2;
    summary.execution.failedJobs = 1;
    summary.execution.simulatedInstructions = 17600000;
    summary.execution.wallSeconds = 12.5;
    summary.droppedBenchmarks = {"mcf"};
    summary.rankTableDigest = "8899aabbccddeeff";
    manifest.addSummary(summary);
    EXPECT_EQ(manifest.toJsonl(),
              "{\"type\":\"summary\",\"runs_total\":176,"
              "\"runs_completed\":175,\"cache_hits\":88,"
              "\"journal_hits\":3,\"retries\":2,\"failed_jobs\":1,"
              "\"simulated_instructions\":17600000,"
              "\"wall_seconds\":12.5,"
              "\"dropped_benchmarks\":[\"mcf\"],"
              "\"rank_table_digest\":\"8899aabbccddeeff\"}\n");
}

TEST(CampaignManifest, RecordsKeepInsertionOrder)
{
    obs::CampaignManifest manifest;
    manifest.beginCampaign(sampleCampaign());
    manifest.addPhase("preflight", 0.1);
    obs::CellRecord cell;
    cell.benchmark = "gzip";
    manifest.addCell(cell);
    manifest.addSummary({});
    EXPECT_EQ(manifest.recordCount(), 4u);

    std::istringstream lines(manifest.toJsonl());
    std::string line;
    std::vector<std::string> types;
    while (std::getline(lines, line))
        types.push_back(line.substr(0, line.find(',')));
    ASSERT_EQ(types.size(), 4u);
    EXPECT_EQ(types[0], "{\"type\":\"campaign\"");
    EXPECT_EQ(types[1], "{\"type\":\"phase\"");
    EXPECT_EQ(types[2], "{\"type\":\"cell\"");
    EXPECT_EQ(types[3], "{\"type\":\"summary\"");
}

TEST(CampaignManifest, ConcurrentCellAppendsAllLand)
{
    obs::CampaignManifest manifest;
    constexpr unsigned kThreads = 8;
    constexpr std::size_t kPerThread = 500;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&manifest, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                obs::CellRecord cell;
                cell.benchmark = "w" + std::to_string(t);
                cell.row = i;
                cell.source = "simulated";
                manifest.addCell(cell);
            }
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(manifest.recordCount(), kThreads * kPerThread);
}

TEST(CampaignManifest, WriteToRoundTrips)
{
    obs::CampaignManifest manifest;
    manifest.beginCampaign(sampleCampaign());
    manifest.addPhase("screen", 2.0);

    const std::string path =
        testing::TempDir() + "manifest_test_golden.jsonl";
    manifest.writeTo(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream contents;
    contents << in.rdbuf();
    EXPECT_EQ(contents.str(), manifest.toJsonl());
    std::remove(path.c_str());
}

} // namespace
