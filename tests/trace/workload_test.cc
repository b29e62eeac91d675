#include <gtest/gtest.h>

#include "trace/workloads.hh"

namespace trace = rigor::trace;

TEST(Workloads, ThirteenProfilesInTable5Order)
{
    const auto all = trace::spec2000Workloads();
    ASSERT_EQ(all.size(), 13u);
    const std::vector<std::string> expected = {
        "gzip", "vpr-Place", "vpr-Route", "gcc",    "mesa",
        "art",  "mcf",       "equake",    "ammp",   "parser",
        "vortex", "bzip2",   "twolf"};
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(all[i].name, expected[i]);
}

TEST(Workloads, AllProfilesValidate)
{
    for (const trace::WorkloadProfile &p : trace::spec2000Workloads())
        EXPECT_NO_THROW(p.validate()) << p.name;
}

TEST(Workloads, PaperInstructionCountsMatchTable5)
{
    EXPECT_DOUBLE_EQ(
        trace::workloadByName("gzip").paperInstructionsMillions,
        1364.2);
    EXPECT_DOUBLE_EQ(
        trace::workloadByName("gcc").paperInstructionsMillions, 4040.7);
    EXPECT_DOUBLE_EQ(
        trace::workloadByName("mcf").paperInstructionsMillions, 601.2);
    EXPECT_DOUBLE_EQ(
        trace::workloadByName("twolf").paperInstructionsMillions,
        764.6);
}

TEST(Workloads, FloatingPointFlagMatchesTable5)
{
    for (const char *fp : {"mesa", "art", "equake", "ammp"})
        EXPECT_TRUE(trace::workloadByName(fp).isFloatingPoint) << fp;
    for (const char *intb :
         {"gzip", "vpr-Place", "vpr-Route", "gcc", "mcf", "parser",
          "vortex", "bzip2", "twolf"})
        EXPECT_FALSE(trace::workloadByName(intb).isFloatingPoint)
            << intb;
}

TEST(Workloads, FingerprintsAreDistinct)
{
    // The qualitative contrasts the classification step relies on.
    const auto &mesa = trace::workloadByName("mesa");
    const auto &mcf = trace::workloadByName("mcf");
    const auto &gzip = trace::workloadByName("gzip");
    const auto &art = trace::workloadByName("art");

    // mesa is I-cache heavy, mcf is not.
    EXPECT_GT(mesa.codeFootprintBytes, 8 * mcf.codeFootprintBytes);
    // mcf and art are memory bound; gzip is not.
    EXPECT_GE(mcf.dataFootprintBytes, 8 * gzip.dataFootprintBytes);
    EXPECT_GE(art.dataFootprintBytes, 8 * gzip.dataFootprintBytes);
    // gzip has the value locality precomputation exploits.
    EXPECT_GT(gzip.valueLocality, 2.0 * mcf.valueLocality);
    // FP benchmarks carry FP work.
    EXPECT_GT(art.fracFpAlu, 0.1);
    EXPECT_DOUBLE_EQ(trace::workloadByName("parser").fracFpAlu, 0.0);
}

TEST(Workloads, MixesAreFeasible)
{
    for (const trace::WorkloadProfile &p : trace::spec2000Workloads()) {
        EXPECT_GT(p.fracIntAlu(), 0.1) << p.name;
        EXPECT_GT(p.fracLoad, 0.1) << p.name;
        EXPECT_LT(p.fracLoad + p.fracStore, 0.6) << p.name;
    }
}

TEST(Workloads, UnknownNameThrows)
{
    EXPECT_THROW(trace::workloadByName("quake3"),
                 std::invalid_argument);
}
