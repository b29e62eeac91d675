/**
 * @file
 * Shared helpers for the table-regeneration harnesses.
 */

#ifndef RIGOR_BENCH_COMMON_HH
#define RIGOR_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "cli_options.hh"

namespace rigor::bench
{

/**
 * Dynamic instructions per simulation run. The paper ran the full
 * MinneSPEC workloads (0.6-4.0 G instructions); the default here
 * keeps the 1144-simulation experiment to laptop scale. Override
 * with RIGOR_INSTRUCTIONS: unset or empty keeps the default, and
 * anything but a positive integer exits 2 before any simulation.
 */
inline std::uint64_t
instructionsPerRun()
{
    const char *env = std::getenv("RIGOR_INSTRUCTIONS");
    if (env == nullptr || *env == '\0')
        return 100000;
    std::uint64_t n = 0;
    if (!tools::parseUint64(env, n) || n == 0) {
        std::fprintf(stderr, "bad RIGOR_INSTRUCTIONS value %s\n", env);
        std::exit(2);
    }
    return n;
}

} // namespace rigor::bench

#endif // RIGOR_BENCH_COMMON_HH
