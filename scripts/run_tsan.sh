#!/usr/bin/env bash
# Build the tsan preset and run the concurrency-sensitive test suites
# (doe, methodology, exec) under ThreadSanitizer. Any data race in the
# SimJobQueue, RunCache, the engine's progress counters and the
# per-batch metrics publish from them, the drivers that share a
# SimulationEngine (and its cache of whole cell results), the
# journal's sampled resume paths, or the sandbox pool's monitor fails
# the run.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"

# TSan halts on the first race so failures point at one stack pair.
# die_after_fork=0: the process-isolation suites fork sandbox
# workers from a multithreaded parent by design (the children only
# simulate and _Exit; they never touch the parent's locks).
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 die_after_fork=0"

# Every suite under tests/doe, tests/methodology, and tests/exec —
# run straight from the gtest binary so one process exercises the
# shared-engine paths end to end — plus the golden response digest
# (two engine threads, each reusing its own timing core and replaying
# its own L1 cache and TLB tracks, at all three pinned lengths), the
# core-reuse property tests and the replay-vs-live suite.
./build-tsan/tests/rigor_tests --gtest_filter="$(tr -d ' \n' <<'EOF'
SimJobQueue.*:RunCache.*:ProcessorConfigHash.*:SimulationEngine.*:
PbDesign.*:Foldover.*:Effects.*:DesignMatrix.*:DesignCost.*:
OneAtATime.*:
Classification.*:Ranking.*:RankTable.*:TextTable.*:
ParameterSpace.*:PbExperiment.*:Workflow.*:EnhancementAnalysis.*:
PublishedData.*:Preflight.*:AdaptiveSampling.*:
FaultPolicy.*:AttemptContext.*:JobFailure.*:FaultTolerance.*:
FaultInjector.*:ResultJournal.*:CampaignCheck.*:CampaignResume.*:
CampaignDegradation.*:
ProcProtocol.*:ProcSandbox.*:ProcWorkerPool.*:ProcCampaign.*:
Executors/AttemptTaxonomy.*:
NetProtocol.*:NetSocket.*:
ReplicatedPbExperiment.*:DesignBatch.*:
Metrics.*:TraceWriter.*:TraceSpan.*:CampaignManifest.*:
CampaignOptions.*:
GoldenFixture.ResponseMatrixDigestIsPinned:
GoldenFixture.ScreenLengthDigestIsPinned:GoldenFixture.WarmedDigestIsPinned:
CoreReconfigure.*:L1Replay.*
EOF
)"

echo "TSan suites passed."
