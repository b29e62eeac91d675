#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/distance.hh"

namespace cluster = rigor::cluster;

TEST(Distance, EuclideanKnownValue)
{
    const std::vector<double> x = {0.0, 0.0};
    const std::vector<double> y = {3.0, 4.0};
    EXPECT_DOUBLE_EQ(cluster::euclideanDistance(x, y), 5.0);
}

TEST(Distance, EuclideanPaperExample)
{
    // The paper's worked example: distance between gzip and
    // vpr-Place is sqrt(8058) = 89.8 (full check against the real
    // rank vectors lives in methodology/published_data_test).
    EXPECT_NEAR(std::sqrt(8058.0), 89.8, 0.05);
}

TEST(Distance, EuclideanIdentityAndSymmetry)
{
    const std::vector<double> x = {1.0, -2.0, 3.5};
    const std::vector<double> y = {0.0, 7.0, -1.0};
    EXPECT_DOUBLE_EQ(cluster::euclideanDistance(x, x), 0.0);
    EXPECT_DOUBLE_EQ(cluster::euclideanDistance(x, y),
                     cluster::euclideanDistance(y, x));
}

TEST(Distance, EuclideanTriangleInequality)
{
    const std::vector<double> a = {0.0, 0.0};
    const std::vector<double> b = {1.0, 2.0};
    const std::vector<double> c = {4.0, -1.0};
    EXPECT_LE(cluster::euclideanDistance(a, c),
              cluster::euclideanDistance(a, b) +
                  cluster::euclideanDistance(b, c) + 1e-12);
}

TEST(Distance, RejectsMismatchedOrEmpty)
{
    const std::vector<double> x = {1.0};
    const std::vector<double> y = {1.0, 2.0};
    EXPECT_THROW(cluster::euclideanDistance(x, y),
                 std::invalid_argument);
    EXPECT_THROW(cluster::euclideanDistance({}, {}),
                 std::invalid_argument);
}
