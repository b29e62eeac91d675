#include "check/preflight.hh"

#include <string>

#include "check/config_check.hh"
#include "check/design_check.hh"
#include "check/workload_check.hh"

namespace rigor::check
{

DiagnosticSink
analyzeExperimentPlan(const ExperimentPlan &plan)
{
    DiagnosticSink sink;

    if (plan.design) {
        DesignCheckOptions options;
        options.expectedFactors = plan.expectedFactors;
        options.requireFoldover = plan.designIsFolded;
        checkDesignMatrix(*plan.design, options, sink);
    }

    if (plan.auditParameterSpace)
        checkParameterSpace(sink);

    for (std::size_t i = 0; i < plan.configs.size(); ++i) {
        SourceContext ctx;
        ctx.object = "configuration " + std::to_string(i);
        if (plan.configs[i])
            checkProcessorConfig(*plan.configs[i], sink, ctx);
    }

    checkWorkloads(plan.workloads, sink);
    for (const trace::WorkloadProfile &profile : plan.workloads)
        checkRunLengths(plan.instructionsPerRun,
                        plan.warmupInstructions, profile, sink);

    checkSamplingPlan(plan.sampling, plan.instructionsPerRun,
                      plan.warmupInstructions, sink);

    return sink;
}

void
preflightOrThrow(const ExperimentPlan &plan, const char *who)
{
    DiagnosticSink sink = analyzeExperimentPlan(plan);
    if (!sink.passed())
        throw PreflightError(who, std::move(sink));
}

} // namespace rigor::check
