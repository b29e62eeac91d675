#include "cluster/hierarchical.hh"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "cluster/union_find.hh"

namespace rigor::cluster
{

Dendrogram::Dendrogram(std::size_t num_leaves,
                       std::vector<MergeStep> steps)
    : _numLeaves(num_leaves), _steps(std::move(steps))
{
    if (_numLeaves == 0)
        throw std::invalid_argument("Dendrogram: need at least one leaf");
    if (_steps.size() != _numLeaves - 1)
        throw std::invalid_argument(
            "Dendrogram: need exactly n - 1 merge steps");
}

Groups
Dendrogram::cut(double height) const
{
    UnionFind uf(_numLeaves);
    // Track, for every cluster id, one representative leaf.
    std::vector<std::size_t> rep(_numLeaves + _steps.size());
    for (std::size_t i = 0; i < _numLeaves; ++i)
        rep[i] = i;
    for (std::size_t k = 0; k < _steps.size() && _steps[k].distance < height;
         ++k) {
        const MergeStep &step = _steps[k];
        uf.unite(rep[step.left], rep[step.right]);
        rep[_numLeaves + k] = rep[step.left];
    }
    return uf.sets();
}

std::string
Dendrogram::toString(const std::vector<std::string> &labels) const
{
    if (labels.size() != _numLeaves)
        throw std::invalid_argument(
            "Dendrogram::toString: need one label per leaf");

    // Expand any cluster id to its member label list.
    std::vector<std::string> names(labels);
    names.resize(_numLeaves + _steps.size());

    std::ostringstream os;
    for (std::size_t k = 0; k < _steps.size(); ++k) {
        const MergeStep &s = _steps[k];
        const std::string merged =
            "{" + names[s.left] + ", " + names[s.right] + "}";
        names[_numLeaves + k] = merged;
        os << std::fixed << std::setprecision(1) << std::setw(8)
           << s.distance << "  " << merged << '\n';
    }
    return os.str();
}

Dendrogram
agglomerate(const DistanceMatrix &distances)
{
    const std::size_t n = distances.size();

    struct Cluster
    {
        std::size_t id;
        std::vector<std::size_t> leaves;
        bool alive;
    };
    std::vector<Cluster> clusters;
    clusters.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i)
        clusters.push_back({i, {i}, true});

    // Single-linkage distance: the closest pair of leaves.
    const auto link = [&](const Cluster &a, const Cluster &b) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t la : a.leaves)
            for (std::size_t lb : b.leaves)
                best = std::min(best, distances.at(la, lb));
        return best;
    };

    std::vector<MergeStep> steps;
    steps.reserve(n - 1);
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < n; ++i)
        active.push_back(i);

    while (active.size() > 1) {
        double best_d = std::numeric_limits<double>::infinity();
        std::size_t bi = 0;
        std::size_t bj = 1;
        for (std::size_t i = 0; i < active.size(); ++i) {
            for (std::size_t j = i + 1; j < active.size(); ++j) {
                const double d =
                    link(clusters[active[i]], clusters[active[j]]);
                if (d < best_d) {
                    best_d = d;
                    bi = i;
                    bj = j;
                }
            }
        }

        const std::size_t ca = active[bi];
        const std::size_t cb = active[bj];
        Cluster merged;
        merged.id = clusters.size();
        merged.leaves = clusters[ca].leaves;
        merged.leaves.insert(merged.leaves.end(),
                             clusters[cb].leaves.begin(),
                             clusters[cb].leaves.end());
        merged.alive = true;
        clusters[ca].alive = false;
        clusters[cb].alive = false;

        steps.push_back({clusters[ca].id, clusters[cb].id, best_d,
                         merged.leaves.size()});
        clusters.push_back(std::move(merged));

        // Replace the two merged entries with the new cluster.
        active.erase(active.begin() + static_cast<long>(bj));
        active[bi] = clusters.size() - 1;
    }

    return Dendrogram(n, std::move(steps));
}

} // namespace rigor::cluster
