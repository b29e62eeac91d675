#include "cluster/threshold_grouping.hh"

#include "cluster/union_find.hh"

namespace rigor::cluster
{

Groups
groupByThresholdComponents(const DistanceMatrix &distances,
                           double threshold)
{
    UnionFind uf(distances.size());
    for (const auto &[i, j] : distances.pairsBelow(threshold))
        uf.unite(i, j);
    return uf.sets();
}

} // namespace rigor::cluster
