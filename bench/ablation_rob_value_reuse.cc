/**
 * @file
 * Ablation reproducing the [Yi02-2] observation the paper quotes in
 * section 4.1: "simply increasing the reorder buffer size can change
 * the speedup of a value reuse mechanism from approximately 20% to
 * approximately 30%" — i.e. a single poorly chosen constant parameter
 * substantially distorts the measured benefit of an enhancement.
 *
 * We measure the speedup of a dynamic value-reuse table on the
 * value-local workloads at ROB = 8 vs ROB = 64, everything else at
 * the typical configuration, and additionally sweep the ROB.
 */

#include <cstdio>

#include "bench_common.hh"
#include "enhance/value_reuse.hh"
#include "methodology/pb_experiment.hh"
#include "methodology/report.hh"
#include "sim/config.hh"
#include "trace/workloads.hh"

int
main()
{
    namespace enhance = rigor::enhance;
    namespace methodology = rigor::methodology;
    namespace trace = rigor::trace;

    const std::uint64_t n = rigor::bench::instructionsPerRun();

    const auto speedup_at = [&](const trace::WorkloadProfile &p,
                                std::uint32_t rob) {
        // Value reuse relieves integer-execution pressure, so its
        // benefit shows on a machine where that is the bottleneck —
        // one integer ALU, fast caches (as in the [Yi02-2] setup the
        // paper quotes).
        rigor::sim::ProcessorConfig config;
        config.intAlus = 1;
        config.l1d.latency = 1;
        config.robEntries = rob;
        const double base = methodology::simulateOnce(
            p, config, n, nullptr, n / 2);
        enhance::ValueReuseTable table(1024, 4);
        const double enhanced = methodology::simulateOnce(
            p, config, n, &table, n / 2);
        return base / enhanced;
    };

    std::printf("Ablation: value-reuse speedup sensitivity to the "
                "reorder buffer size\n(the [Yi02-2] pitfall quoted in "
                "section 4.1)\n\n");

    methodology::TextTable table(
        {"Benchmark", "ROB=8", "ROB=16", "ROB=32", "ROB=64",
         "64/8 ratio"});
    for (const char *name : {"gzip", "bzip2", "parser", "gcc"}) {
        const trace::WorkloadProfile &p = trace::workloadByName(name);
        const double s8 = speedup_at(p, 8);
        const double s16 = speedup_at(p, 16);
        const double s32 = speedup_at(p, 32);
        const double s64 = speedup_at(p, 64);
        table.addRow({name, methodology::formatDouble(s8, 3),
                      methodology::formatDouble(s16, 3),
                      methodology::formatDouble(s32, 3),
                      methodology::formatDouble(s64, 3),
                      methodology::formatDouble(s64 / s8, 3)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Reading: the measured benefit of the *same* "
                "enhancement depends on the constant ROB parameter — "
                "choose constants with a screening design first.\n");
    return 0;
}
