#include <gtest/gtest.h>

#include "doe/ranking.hh"

namespace doe = rigor::doe;

TEST(Ranking, RanksByMagnitudeIgnoringSign)
{
    // The Table 4 effects again: F (rank 1), C, D, E, G, B, A.
    const std::vector<double> effects = {-23.0, -67.0, -137.0, 129.0,
                                         -105.0, -225.0, 73.0};
    const std::vector<unsigned> ranks = doe::rankByMagnitude(effects);
    EXPECT_EQ(ranks,
              (std::vector<unsigned>{7, 6, 2, 3, 4, 1, 5}));
}

TEST(Ranking, TiesResolvedStably)
{
    const std::vector<double> effects = {5.0, -5.0, 1.0};
    const std::vector<unsigned> ranks = doe::rankByMagnitude(effects);
    EXPECT_EQ(ranks, (std::vector<unsigned>{1, 2, 3}));
}

TEST(Ranking, AggregateSumsAcrossBenchmarks)
{
    const std::vector<std::string> names = {"P", "Q", "R"};
    // Benchmark 1 effect order: P > Q > R (ranks 1, 2, 3).
    // Benchmark 2 effect order: Q > P > R (ranks 2, 1, 3).
    const std::vector<std::vector<double>> effects = {
        {30.0, 20.0, 10.0},
        {20.0, 30.0, 10.0},
    };
    const std::vector<doe::FactorRankSummary> summaries =
        doe::aggregateRanks(names, effects);

    ASSERT_EQ(summaries.size(), 3u);
    // P and Q both sum to 3; R sums to 6. Stable sort keeps P first.
    EXPECT_EQ(summaries[0].name, "P");
    EXPECT_EQ(summaries[0].sumOfRanks, 3ul);
    EXPECT_EQ(summaries[0].ranks, (std::vector<unsigned>{1, 2}));
    EXPECT_EQ(summaries[1].name, "Q");
    EXPECT_EQ(summaries[1].sumOfRanks, 3ul);
    EXPECT_EQ(summaries[2].name, "R");
    EXPECT_EQ(summaries[2].sumOfRanks, 6ul);
}

TEST(Ranking, AggregateIsSortedAscending)
{
    const std::vector<std::string> names = {"a", "b", "c", "d"};
    const std::vector<std::vector<double>> effects = {
        {1.0, 9.0, 4.0, 2.0},
        {2.0, 8.0, 7.0, 1.0},
        {1.5, 7.0, 6.0, 0.5},
    };
    const std::vector<doe::FactorRankSummary> summaries =
        doe::aggregateRanks(names, effects);
    for (std::size_t i = 1; i < summaries.size(); ++i)
        EXPECT_LE(summaries[i - 1].sumOfRanks,
                  summaries[i].sumOfRanks);
    EXPECT_EQ(summaries.front().name, "b");
}

TEST(Ranking, AggregateRejectsEmptyAndRagged)
{
    const std::vector<std::string> names = {"a", "b"};
    EXPECT_THROW(doe::aggregateRanks(names, {}),
                 std::invalid_argument);
    const std::vector<std::vector<double>> ragged = {{1.0, 2.0},
                                                     {1.0}};
    EXPECT_THROW(doe::aggregateRanks(names, ragged),
                 std::invalid_argument);
}

TEST(Ranking, SignificanceCutoffFindsLargestGap)
{
    // Sums: 10, 12, 14, 50, 52 -> biggest gap after the third.
    std::vector<doe::FactorRankSummary> summaries(5);
    const unsigned long sums[] = {10, 12, 14, 50, 52};
    for (std::size_t i = 0; i < 5; ++i) {
        summaries[i].name = std::string("f").append(std::to_string(i));
        summaries[i].sumOfRanks = sums[i];
    }
    EXPECT_EQ(doe::significanceCutoff(summaries, 4), 3u);
}

TEST(Ranking, SignificanceCutoffRespectsMaxCut)
{
    std::vector<doe::FactorRankSummary> summaries(4);
    const unsigned long sums[] = {10, 11, 12, 100};
    for (std::size_t i = 0; i < 4; ++i)
        summaries[i].sumOfRanks = sums[i];
    // The huge gap is at cut 3, but max_cut = 2 caps the search.
    EXPECT_LE(doe::significanceCutoff(summaries, 2), 2u);
}

TEST(Ranking, SignificanceCutoffDegenerate)
{
    std::vector<doe::FactorRankSummary> one(1);
    EXPECT_EQ(doe::significanceCutoff(one, 5), 1u);
    EXPECT_EQ(doe::significanceCutoff({}, 5), 0u);
}
