#include "methodology/rank_stability.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "check/campaign_check.hh"
#include "doe/ranking.hh"
#include "methodology/campaign_instrumentation.hh"
#include "methodology/parameter_space.hh"
#include "obs/json.hh"

namespace rigor::methodology
{

namespace
{

/** Position (1-based) of every factor in a sorted rank table. */
std::unordered_map<std::string, std::size_t>
positionsByName(std::span<const doe::FactorRankSummary> summaries)
{
    std::unordered_map<std::string, std::size_t> positions;
    positions.reserve(summaries.size());
    for (std::size_t k = 0; k < summaries.size(); ++k)
        positions.emplace(summaries[k].name, k + 1);
    return positions;
}

/** Percentile CI of an unsorted bootstrap sample (consumes it). */
stats::BootstrapInterval
percentileInterval(std::vector<double> &samples, double estimate,
                   double confidence)
{
    std::sort(samples.begin(), samples.end());
    const double alpha = 1.0 - confidence;
    stats::BootstrapInterval interval;
    interval.estimate = estimate;
    interval.lower = stats::quantileSorted(samples, alpha / 2.0);
    interval.upper = stats::quantileSorted(samples, 1.0 - alpha / 2.0);
    return interval;
}

std::string
formatInterval(const stats::BootstrapInterval &interval)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "[%5.1f, %5.1f]",
                  interval.lower, interval.upper);
    return buffer;
}

void
appendMatrixJson(std::string &out, const cluster::DistanceMatrix &m)
{
    out += '[';
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += '[';
        for (std::size_t j = 0; j < m.size(); ++j) {
            if (j != 0)
                out += ", ";
            out += obs::jsonNumber(m.at(i, j));
        }
        out += ']';
    }
    out += ']';
}

} // namespace

check::RankStabilityFindings
RankStabilityReport::findings() const
{
    check::RankStabilityFindings out;
    out.factorNames.reserve(factors.size());
    out.rankLower.reserve(factors.size());
    out.rankUpper.reserve(factors.size());
    for (const FactorStability &factor : factors) {
        out.factorNames.push_back(factor.name);
        out.rankLower.push_back(factor.rank.lower);
        out.rankUpper.push_back(factor.rank.upper);
    }
    out.flipProbability = flipProbability;
    out.replicates = replicates;
    out.sampled = sampled;
    out.samplingCiComposed = samplingCiComposed;
    return out;
}

std::string
RankStabilityReport::toString() const
{
    std::string out;
    out += "Rank stability (" + std::to_string(replicates) +
           " replicates, " + std::to_string(bootstrap.iterations) +
           " bootstrap iterations, seed " +
           std::to_string(bootstrap.seed) + ")\n";
    out += "rank  factor                        rank CI         "
           "sum-of-ranks CI\n";
    for (const FactorStability &factor : factors) {
        char line[128];
        std::snprintf(line, sizeof(line), "%4u  %-28s %s  %s\n",
                      factor.pointRank, factor.name.c_str(),
                      formatInterval(factor.rank).c_str(),
                      formatInterval(factor.sumOfRanks).c_str());
        out += line;
    }
    const std::size_t top = flipProbability.size();
    double max_flip = 0.0;
    std::size_t max_i = 0;
    std::size_t max_j = 0;
    for (std::size_t i = 0; i < top; ++i) {
        for (std::size_t j = i + 1; j < top; ++j) {
            if (flipProbability[i][j] > max_flip) {
                max_flip = flipProbability[i][j];
                max_i = i;
                max_j = j;
            }
        }
    }
    if (top != 0) {
        char line[160];
        std::snprintf(
            line, sizeof(line),
            "max top-%zu flip probability: %.3f ('%s' vs '%s')\n",
            top, max_flip, factors[max_i].name.c_str(),
            factors[max_j].name.c_str());
        out += line;
    }
    if (sampled) {
        out += samplingCiComposed
                   ? "sampling CIs composed (root-sum-square) with "
                     "replication spread\n"
                   : "WARNING: sampling CIs not composed with "
                     "replication spread\n";
    }
    return out;
}

std::string
RankStabilityReport::toJson() const
{
    std::string out;
    out += "{\n  \"replicates\": ";
    out += std::to_string(replicates);
    out += ",\n  \"bootstrapIterations\": ";
    out += std::to_string(bootstrap.iterations);
    out += ",\n  \"bootstrapSeed\": ";
    out += std::to_string(bootstrap.seed);
    out += ",\n  \"confidence\": ";
    out += obs::jsonNumber(bootstrap.confidence);
    out += ",\n  \"sampled\": ";
    out += sampled ? "true" : "false";
    out += ",\n  \"samplingCiComposed\": ";
    out += samplingCiComposed ? "true" : "false";
    out += ",\n  \"benchmarks\": [";
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        if (b != 0)
            out += ", ";
        obs::appendJsonString(out, benchmarks[b]);
    }
    out += "],\n  \"factors\": [";
    for (std::size_t f = 0; f < factors.size(); ++f) {
        const FactorStability &factor = factors[f];
        out += f == 0 ? "\n" : ",\n";
        out += "    {\"name\": ";
        obs::appendJsonString(out, factor.name);
        out += ", \"rank\": " + std::to_string(factor.pointRank);
        out += ", \"rankLower\": " + obs::jsonNumber(factor.rank.lower);
        out += ", \"rankUpper\": " + obs::jsonNumber(factor.rank.upper);
        out += ", \"sumOfRanks\": " +
               obs::jsonNumber(factor.sumOfRanks.estimate);
        out += ", \"sumLower\": " +
               obs::jsonNumber(factor.sumOfRanks.lower);
        out += ", \"sumUpper\": " +
               obs::jsonNumber(factor.sumOfRanks.upper);
        out += '}';
    }
    out += "\n  ],\n  \"flipProbability\": [";
    for (std::size_t i = 0; i < flipProbability.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    [";
        for (std::size_t j = 0; j < flipProbability[i].size(); ++j) {
            if (j != 0)
                out += ", ";
            out += obs::jsonNumber(flipProbability[i][j]);
        }
        out += ']';
    }
    out += "\n  ],\n  \"distance\": {\"mean\": ";
    appendMatrixJson(out, distance);
    out += ", \"lower\": ";
    appendMatrixJson(out, distanceLower);
    out += ", \"upper\": ";
    appendMatrixJson(out, distanceUpper);
    out += "},\n  \"composed\": [";
    for (std::size_t b = 0; b < composed.size(); ++b) {
        const ComposedUncertainty &c = composed[b];
        out += b == 0 ? "\n" : ",\n";
        out += "    {\"benchmark\": ";
        obs::appendJsonString(out, c.benchmark);
        out += ", \"replicationHalfWidth\": " +
               obs::jsonNumber(c.replicationHalfWidth);
        out += ", \"samplingHalfWidth\": " +
               obs::jsonNumber(c.samplingHalfWidth);
        out += ", \"composedHalfWidth\": " +
               obs::jsonNumber(c.composedHalfWidth);
        out += '}';
    }
    out += composed.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

RankStabilityReport
analyzeRankStability(const std::vector<std::vector<std::vector<double>>>
                         &effects_by_replicate,
                     std::span<const std::string> benchmarks,
                     std::span<const std::string> factor_names,
                     const stats::BootstrapOptions &bootstrap,
                     unsigned top_factors)
{
    bootstrap.validate();
    const std::size_t num_reps = effects_by_replicate.size();
    if (num_reps == 0)
        throw std::invalid_argument(
            "analyzeRankStability: no replicates");
    const std::size_t num_benches = benchmarks.size();
    const std::size_t num_factors = factor_names.size();
    for (const auto &replicate : effects_by_replicate) {
        if (replicate.size() != num_benches)
            throw std::invalid_argument(
                "analyzeRankStability: replicate benchmark count "
                "mismatch");
        for (const std::vector<double> &bench : replicate)
            if (bench.size() != num_factors)
                throw std::invalid_argument(
                    "analyzeRankStability: replicate factor count "
                    "mismatch");
    }

    RankStabilityReport report;
    report.replicates = static_cast<unsigned>(num_reps);
    report.bootstrap = bootstrap;
    report.benchmarks.assign(benchmarks.begin(), benchmarks.end());

    // Point estimate: mean effects across replicates -> ranks ->
    // aggregation. Everything downstream (the reported order, the
    // flip matrix's pair universe) hangs off this table.
    std::vector<std::vector<double>> mean_effects(
        num_benches, std::vector<double>(num_factors, 0.0));
    for (const auto &replicate : effects_by_replicate)
        for (std::size_t b = 0; b < num_benches; ++b)
            for (std::size_t f = 0; f < num_factors; ++f)
                mean_effects[b][f] += replicate[b][f];
    for (std::size_t b = 0; b < num_benches; ++b)
        for (std::size_t f = 0; f < num_factors; ++f)
            mean_effects[b][f] /= static_cast<double>(num_reps);

    const std::vector<std::string> names(factor_names.begin(),
                                         factor_names.end());
    const std::vector<doe::FactorRankSummary> point_summaries =
        doe::aggregateRanks(names, mean_effects);
    const std::unordered_map<std::string, std::size_t>
        point_positions = positionsByName(point_summaries);

    std::vector<std::vector<double>> point_rank_vectors;
    point_rank_vectors.reserve(num_benches);
    for (const std::vector<double> &effects : mean_effects) {
        const std::vector<unsigned> ranks =
            doe::rankByMagnitude(effects);
        point_rank_vectors.emplace_back(ranks.begin(), ranks.end());
    }
    report.distance =
        cluster::DistanceMatrix::fromPoints(point_rank_vectors);

    const std::size_t top = std::min<std::size_t>(
        top_factors, point_summaries.size());

    // Joint bootstrap: one replicate-resample per iteration drives
    // *all* statistics (rank positions, sums, flips, distances), so
    // their intervals are mutually consistent. Iteration b draws its
    // indices from a stream seeded with mixSeed(seed, b) — the
    // resample sequence is a pure function of (seed, b), independent
    // of threading anywhere else in the campaign.
    const std::uint64_t iters = bootstrap.iterations;
    std::vector<std::vector<double>> position_samples(
        num_factors,
        std::vector<double>(static_cast<std::size_t>(iters), 0.0));
    std::vector<std::vector<double>> sum_samples(
        num_factors,
        std::vector<double>(static_cast<std::size_t>(iters), 0.0));
    std::vector<std::vector<std::uint64_t>> flip_counts(
        top, std::vector<std::uint64_t>(top, 0));
    const std::size_t num_pairs =
        num_benches * (num_benches - 1) / 2;
    std::vector<std::vector<double>> distance_samples(
        num_pairs,
        std::vector<double>(static_cast<std::size_t>(iters), 0.0));

    std::unordered_map<std::string, std::size_t> factor_index;
    factor_index.reserve(num_factors);
    for (std::size_t f = 0; f < num_factors; ++f)
        factor_index.emplace(names[f], f);

    std::vector<std::size_t> draw(num_reps, 0);
    std::vector<std::vector<double>> resampled_effects(
        num_benches, std::vector<double>(num_factors, 0.0));
    for (std::uint64_t it = 0; it < iters; ++it) {
        stats::BootstrapRng rng(stats::mixSeed(bootstrap.seed, it));
        stats::resampleIndices(rng, num_reps, draw);

        for (std::size_t b = 0; b < num_benches; ++b)
            std::fill(resampled_effects[b].begin(),
                      resampled_effects[b].end(), 0.0);
        for (const std::size_t r : draw)
            for (std::size_t b = 0; b < num_benches; ++b)
                for (std::size_t f = 0; f < num_factors; ++f)
                    resampled_effects[b][f] +=
                        effects_by_replicate[r][b][f];
        for (std::size_t b = 0; b < num_benches; ++b)
            for (std::size_t f = 0; f < num_factors; ++f)
                resampled_effects[b][f] /=
                    static_cast<double>(num_reps);

        const std::vector<doe::FactorRankSummary> summaries =
            doe::aggregateRanks(names, resampled_effects);
        std::vector<std::size_t> position_of(num_factors, 0);
        for (std::size_t k = 0; k < summaries.size(); ++k) {
            const auto found = factor_index.find(summaries[k].name);
            if (found == factor_index.end())
                continue;
            position_of[found->second] = k + 1;
            position_samples[found->second]
                            [static_cast<std::size_t>(it)] =
                static_cast<double>(k + 1);
            sum_samples[found->second]
                       [static_cast<std::size_t>(it)] =
                static_cast<double>(summaries[k].sumOfRanks);
        }

        // Flip counting over the reported top-K order: pair (i, j)
        // flipped when the resample puts the reported-worse factor
        // ahead.
        for (std::size_t i = 0; i < top; ++i) {
            const std::size_t fi =
                factor_index.at(point_summaries[i].name);
            for (std::size_t j = i + 1; j < top; ++j) {
                const std::size_t fj =
                    factor_index.at(point_summaries[j].name);
                if (position_of[fi] > position_of[fj])
                    ++flip_counts[i][j];
            }
        }

        std::vector<std::vector<double>> rank_vectors;
        rank_vectors.reserve(num_benches);
        for (const std::vector<double> &effects : resampled_effects) {
            const std::vector<unsigned> ranks =
                doe::rankByMagnitude(effects);
            rank_vectors.emplace_back(ranks.begin(), ranks.end());
        }
        const cluster::DistanceMatrix distances =
            cluster::DistanceMatrix::fromPoints(rank_vectors);
        std::size_t pair = 0;
        for (std::size_t i = 0; i < num_benches; ++i)
            for (std::size_t j = i + 1; j < num_benches; ++j)
                distance_samples[pair++]
                                [static_cast<std::size_t>(it)] =
                    distances.at(i, j);
    }

    // Percentile intervals from the joint samples, reported in point
    // order (best first).
    report.factors.reserve(point_summaries.size());
    for (std::size_t k = 0; k < point_summaries.size(); ++k) {
        const doe::FactorRankSummary &summary = point_summaries[k];
        const std::size_t f = factor_index.at(summary.name);
        FactorStability factor;
        factor.name = summary.name;
        factor.pointRank = static_cast<unsigned>(k + 1);
        factor.rank = percentileInterval(
            position_samples[f], static_cast<double>(k + 1),
            bootstrap.confidence);
        factor.sumOfRanks = percentileInterval(
            sum_samples[f], static_cast<double>(summary.sumOfRanks),
            bootstrap.confidence);
        report.factors.push_back(std::move(factor));
    }

    report.flipProbability.assign(top, std::vector<double>(top, 0.0));
    for (std::size_t i = 0; i < top; ++i) {
        for (std::size_t j = i + 1; j < top; ++j) {
            const double p = static_cast<double>(flip_counts[i][j]) /
                             static_cast<double>(iters);
            report.flipProbability[i][j] = p;
            report.flipProbability[j][i] = p;
        }
    }

    report.distanceLower = cluster::DistanceMatrix(num_benches);
    report.distanceUpper = cluster::DistanceMatrix(num_benches);
    std::size_t pair = 0;
    for (std::size_t i = 0; i < num_benches; ++i) {
        for (std::size_t j = i + 1; j < num_benches; ++j) {
            const stats::BootstrapInterval interval =
                percentileInterval(distance_samples[pair++],
                                   report.distance.at(i, j),
                                   bootstrap.confidence);
            report.distanceLower.set(i, j, interval.lower);
            report.distanceUpper.set(i, j, interval.upper);
        }
    }
    return report;
}

ReplicatedPbResult
runReplicatedPbExperiment(
    std::span<const trace::WorkloadProfile> workloads,
    const RankStabilityOptions &options)
{
    const stats::ReplicationOptions &replication = options.replication;
    if (!replication.enabled())
        throw std::invalid_argument(
            "runReplicatedPbExperiment: replication.replicates must "
            "be >= 1");
    if (workloads.empty())
        throw std::invalid_argument(
            "runReplicatedPbExperiment: no workloads");
    if (!options.base.campaign.skipPreflight) {
        check::DiagnosticSink sink;
        check::checkReplicationPlan(replication, sink);
        if (!sink.passed())
            throw check::PreflightError("runReplicatedPbExperiment",
                                        std::move(sink));
    }

    const unsigned num_reps = replication.replicates;
    const exec::CampaignOptions &campaign = options.base.campaign;
    detail::CampaignScope scope(campaign);

    // Replicate r renames every profile ("gzip" -> "gzip#r1"): the
    // trace generator is seeded from the name (FNV-1a), so the copy
    // is an independent workload realization, and the run-cache /
    // journal key embeds the name, so replicates never collide with
    // the base runs. Replicate 0 keeps the original names and is
    // byte-for-byte the historical single campaign. Each leg then
    // reports under the base names; its manifest cells, run keys and
    // diagnostics keep the suffixed ones.
    std::vector<PbExperimentResult> runs;
    runs.reserve(num_reps);
    runs.push_back(
        detail::runPbScreen(workloads, options.base, scope, "pb_screen"));
    for (unsigned r = 1; r < num_reps; ++r) {
        const std::string suffix = "#r" + std::to_string(r);
        std::vector<trace::WorkloadProfile> suite(workloads.begin(),
                                                  workloads.end());
        for (trace::WorkloadProfile &profile : suite)
            profile.name += suffix;
        PbExperimentResult run = detail::runPbScreen(
            suite, options.base, scope,
            "pb_screen/replicate-" + std::to_string(r));
        for (std::vector<std::string> *names :
             {&run.benchmarks, &run.droppedBenchmarks})
            for (std::string &name : *names)
                name.resize(name.size() - suffix.size());
        runs.push_back(std::move(run));
    }

    // Degradation may have dropped different benchmarks in different
    // replicates; the stability analysis needs a rectangular tensor.
    // Every replicate's quarantine and drop diagnostics (under its
    // suffixed names) go into the pooled validity, so a benchmark that
    // only a later replicate lost says why it is gone.
    check::DiagnosticSink validity;
    std::vector<PbExperimentResult *> legs;
    for (PbExperimentResult &run : runs) {
        for (const check::Diagnostic &d : run.validity.diagnostics())
            validity.report(d);
        legs.push_back(&run);
    }
    detail::keepCommonBenchmarks(legs, validity,
                                 "runReplicatedPbExperiment");

    // [replicate][benchmark][factor] effects and [replicate]
    // [benchmark] sampling half-widths of the effects (cycles).
    const std::size_t num_benches = runs[0].benchmarks.size();
    std::vector<std::vector<std::vector<double>>> effects_tensor(
        num_reps);
    std::vector<std::vector<double>> sampling_rss(num_reps);
    for (unsigned r = 0; r < num_reps; ++r) {
        effects_tensor[r] = runs[r].effects;
        for (std::size_t b = 0; b < num_benches; ++b)
            sampling_rss[r].push_back(runs[r].effectHalfWidth(b));
    }

    ReplicatedPbResult out;
    out.pooled = std::move(runs[0]);
    out.pooled.validity = std::move(validity);
    const std::vector<std::string> &canonical =
        out.pooled.benchmarks;

    const std::vector<std::string> names = factorNames();
    out.stability = analyzeRankStability(
        effects_tensor, canonical, names, replication.bootstrap,
        options.check.topFactors);

    // Pool the replicates: the reported experiment's effects are the
    // per-factor means, with ranks and the aggregate table recomputed
    // from them. Responses stay replicate 0's (a concrete, cacheable
    // realization rather than a synthetic average).
    for (std::size_t b = 0; b < num_benches; ++b) {
        for (std::size_t f = 0; f < names.size(); ++f) {
            double sum = 0.0;
            for (unsigned r = 0; r < num_reps; ++r)
                sum += effects_tensor[r][b][f];
            out.pooled.effects[b][f] =
                sum / static_cast<double>(num_reps);
        }
        out.pooled.ranks[b] =
            doe::rankByMagnitude(out.pooled.effects[b]);
    }
    out.pooled.summaries =
        doe::aggregateRanks(names, out.pooled.effects);

    // Compose the PR-6 sampling uncertainty with the replication
    // spread: per benchmark, the replication half-width is the BCa CI
    // on the top factor's mean effect across replicates, the sampling
    // half-width is the per-replicate RSS averaged in quadrature, and
    // the reported uncertainty is their root-sum-square.
    if (campaign.sampling.enabled) {
        out.stability.sampled = true;
        const std::string &top_name =
            out.pooled.summaries.front().name;
        const auto top_it =
            std::find(names.begin(), names.end(), top_name);
        const std::size_t top_f = static_cast<std::size_t>(
            top_it - names.begin());
        out.stability.composed.reserve(num_benches);
        for (std::size_t b = 0; b < num_benches; ++b) {
            ComposedUncertainty c;
            c.benchmark = canonical[b];
            std::vector<double> effect_sample;
            effect_sample.reserve(num_reps);
            for (unsigned r = 0; r < num_reps; ++r)
                effect_sample.push_back(effects_tensor[r][b][top_f]);
            c.replicationHalfWidth =
                stats::bootstrapMeanCi(effect_sample,
                                       replication.bootstrap)
                    .halfWidth();
            double sampling_sq = 0.0;
            for (unsigned r = 0; r < num_reps; ++r)
                sampling_sq += sampling_rss[r][b] * sampling_rss[r][b];
            c.samplingHalfWidth =
                std::sqrt(sampling_sq) /
                static_cast<double>(num_reps);
            c.composedHalfWidth = std::sqrt(
                c.replicationHalfWidth * c.replicationHalfWidth +
                c.samplingHalfWidth * c.samplingHalfWidth);
            out.stability.composed.push_back(std::move(c));
        }
        out.stability.samplingCiComposed = true;
    }

    // The stability rules run as a mandatory post-flight: the same
    // skipPreflight escape hatch applies, and either way the
    // diagnostics ride along in the result's validity sink.
    check::DiagnosticSink sink;
    check::checkRankStability(out.stability.findings(), options.check,
                              sink);
    for (const check::Diagnostic &d : sink.diagnostics())
        out.pooled.validity.report(d);
    if (!sink.passed() && !campaign.skipPreflight)
        throw check::CampaignError("runReplicatedPbExperiment",
                                   std::move(sink));

    if (campaign.manifest) {
        obs::StabilityRecord record;
        record.replicates = num_reps;
        record.bootstrapIterations =
            replication.bootstrap.iterations;
        record.bootstrapSeed = replication.bootstrap.seed;
        record.confidence = replication.bootstrap.confidence;
        record.sampled = out.stability.sampled;
        record.samplingCiComposed =
            out.stability.samplingCiComposed;
        const std::size_t top = out.stability.flipProbability.size();
        for (std::size_t k = 0;
             k < std::min(top, out.stability.factors.size()); ++k) {
            const FactorStability &factor = out.stability.factors[k];
            obs::StabilityFactor entry;
            entry.name = factor.name;
            entry.rank = factor.pointRank;
            entry.rankLower = factor.rank.lower;
            entry.rankUpper = factor.rank.upper;
            record.factors.push_back(std::move(entry));
        }
        for (std::size_t i = 0; i < top; ++i)
            for (std::size_t j = i + 1; j < top; ++j)
                record.maxFlipProbability = std::max(
                    record.maxFlipProbability,
                    out.stability.flipProbability[i][j]);
        record.reportDigest = obs::digestHex(
            obs::fnv1a(out.stability.toJson()));
        campaign.manifest->addStability(record);
    }
    return out;
}

} // namespace rigor::methodology
