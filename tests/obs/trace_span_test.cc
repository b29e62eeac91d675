/**
 * @file
 * TraceWriter / TraceSpan: golden-file Chrome trace-event JSON with a
 * pinned clock, RAII span semantics, and null-writer no-ops.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace
{

namespace obs = rigor::obs;

/** Deterministic clock: every call advances by a fixed step. */
obs::TraceWriter::ClockFn
steppingClock(std::uint64_t step)
{
    auto next = std::make_shared<std::uint64_t>(0);
    return [next, step]() -> std::uint64_t {
        const std::uint64_t now = *next;
        *next += step;
        return now;
    };
}

TEST(TraceWriter, RejectsNullClock)
{
    EXPECT_THROW(obs::TraceWriter(obs::TraceWriter::ClockFn{}),
                 std::invalid_argument);
}

TEST(TraceWriter, GoldenCompleteAndCounterEvents)
{
    obs::TraceWriter writer(steppingClock(10));
    writer.addCompleteEvent("screen", "phase", 0, 120, 0,
                            {{"jobs", "88"}});
    writer.addCompleteEvent("run \"gzip\"", "job", 5, 40, 3);
    writer.addCounterEvent("queue_depth", 60, 12.0);

    EXPECT_EQ(writer.eventCount(), 3u);
    const std::string golden =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"screen\",\"cat\":\"phase\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":0,\"ts\":0,\"dur\":120,"
        "\"args\":{\"jobs\":\"88\"}},"
        "{\"name\":\"run \\\"gzip\\\"\",\"cat\":\"job\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":3,\"ts\":5,\"dur\":40,\"args\":{}},"
        "{\"name\":\"queue_depth\",\"cat\":\"counter\",\"ph\":\"C\","
        "\"pid\":1,\"tid\":0,\"ts\":60,\"args\":{\"value\":12}}"
        "]}";
    EXPECT_EQ(writer.toJson(), golden);
}

TEST(TraceWriter, EmptyWriterIsStillValidDocument)
{
    obs::TraceWriter writer(steppingClock(1));
    EXPECT_EQ(writer.toJson(),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(TraceWriter, CounterEventRendersNanAsNull)
{
    obs::TraceWriter writer(steppingClock(1));
    writer.addCounterEvent("busy", 7, std::nan(""));
    EXPECT_NE(writer.toJson().find("\"args\":{\"value\":null}"),
              std::string::npos);
}

TEST(TraceSpan, RecordsLifetimeWithInjectedClock)
{
    obs::TraceWriter writer(steppingClock(100));
    {
        obs::TraceSpan span(&writer, "preflight");
        span.arg("checks", "12");
    } // start=0, end=100 -> dur=100
    ASSERT_EQ(writer.eventCount(), 1u);
    const std::string json = writer.toJson();
    EXPECT_NE(json.find("\"name\":\"preflight\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":0,\"dur\":100"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"checks\":\"12\"}"),
              std::string::npos);
}

TEST(TraceSpan, CloseIsIdempotent)
{
    obs::TraceWriter writer(steppingClock(1));
    obs::TraceSpan span(&writer, "rank");
    span.close();
    span.close(); // second close records nothing
    EXPECT_EQ(writer.eventCount(), 1u);
}

TEST(TraceSpan, NullWriterIsNoOp)
{
    obs::TraceSpan span(nullptr, "ignored");
    span.arg("k", "v");
    span.close(); // must not crash or record anywhere
}

TEST(TraceWriter, WriteToProducesLoadableFile)
{
    obs::TraceWriter writer(steppingClock(10));
    writer.addCompleteEvent("aggregate", "phase", 0, 10, 0);

    const std::string path =
        testing::TempDir() + "trace_span_test_golden.json";
    writer.writeTo(path);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream contents;
    contents << in.rdbuf();
    EXPECT_EQ(contents.str(), writer.toJson() + "\n");
    std::remove(path.c_str());
}

TEST(TraceWriter, WriteToThrowsOnBadPath)
{
    // Every sink writes through obs::writeTextFile, which names the
    // path it could not open.
    const std::string path = "/nonexistent-dir/sink.json";
    obs::TraceWriter writer(steppingClock(1));
    EXPECT_THROW(writer.writeTo(path), std::runtime_error);
    EXPECT_THROW(obs::MetricsRegistry{}.writeTo(path),
                 std::runtime_error);
    EXPECT_THROW(obs::CampaignManifest{}.writeTo(path),
                 std::runtime_error);
    try {
        obs::writeTextFile(path, "x");
        ADD_FAILURE() << "writeTextFile accepted an unwritable path";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
}

} // namespace
