#include "trace/workloads.hh"

#include <stdexcept>

namespace rigor::trace
{

namespace
{

constexpr std::uint64_t kB = 1024;
constexpr std::uint64_t mB = 1024 * 1024;

WorkloadProfile
base(const char *name, bool fp, double paper_minsts)
{
    WorkloadProfile p;
    p.name = name;
    p.isFloatingPoint = fp;
    p.paperInstructionsMillions = paper_minsts;
    return p;
}

std::vector<WorkloadProfile>
buildAll()
{
    std::vector<WorkloadProfile> all;

    // gzip: compression kernels — small hot loops, strong value
    // locality, medium data window, compute bound.
    {
        WorkloadProfile p = base("gzip", false, 1364.2);
        p.fracLoad = 0.22;
        p.fracStore = 0.09;
        p.fracIntMult = 0.004;
        p.fracIntDiv = 0.001;
        p.avgBlockInstrs = 6.0;
        p.takenBias = 0.62;
        p.branchPredictability = 0.82;
        p.callFraction = 0.03;
        p.avgCallDepth = 3.0;
        p.codeFootprintBytes = 48 * kB;
        p.hotCodeBytes = 12 * kB;
        p.dataFootprintBytes = 128 * kB;
        p.hotDataFraction = 0.80;
        p.fracPointerChase = 0.10;
        p.fracStrided = 0.45;
        p.strideBytes = 8;
        p.valueLocality = 0.45;
        p.avgDependencyDistance = 3.5;
        all.push_back(p);
    }

    // vpr-Place: simulated annealing placement — large code, small
    // random-access data, branchy and data-dependent.
    {
        WorkloadProfile p = base("vpr-Place", false, 1521.7);
        p.fracLoad = 0.26;
        p.fracStore = 0.08;
        p.fracIntMult = 0.01;
        p.fracIntDiv = 0.004;
        p.fracFpAlu = 0.04;
        p.fracFpMult = 0.01;
        p.avgBlockInstrs = 5.0;
        p.takenBias = 0.55;
        p.branchPredictability = 0.70;
        p.callFraction = 0.06;
        p.avgCallDepth = 5.0;
        p.codeFootprintBytes = 320 * kB;
        p.hotCodeBytes = 40 * kB;
        p.dataFootprintBytes = 128 * kB;
        p.hotDataFraction = 0.75;
        p.fracPointerChase = 0.35;
        p.fracStrided = 0.15;
        p.strideBytes = 32;
        p.valueLocality = 0.20;
        p.avgDependencyDistance = 3.0;
        all.push_back(p);
    }

    // vpr-Route: maze routing — pointer chasing over a larger routing
    // graph, moderate code.
    {
        WorkloadProfile p = base("vpr-Route", false, 881.1);
        p.fracLoad = 0.29;
        p.fracStore = 0.09;
        p.fracIntMult = 0.008;
        p.fracIntDiv = 0.002;
        p.fracFpAlu = 0.02;
        p.avgBlockInstrs = 5.5;
        p.takenBias = 0.60;
        p.branchPredictability = 0.78;
        p.callFraction = 0.05;
        p.avgCallDepth = 6.0;
        p.codeFootprintBytes = 96 * kB;
        p.hotCodeBytes = 24 * kB;
        p.dataFootprintBytes = 768 * kB;
        p.hotDataFraction = 0.65;
        p.fracPointerChase = 0.50;
        p.fracStrided = 0.10;
        p.strideBytes = 16;
        p.valueLocality = 0.18;
        p.avgDependencyDistance = 3.6;
        all.push_back(p);
    }

    // gcc: compiler — the classic huge-code benchmark: enormous
    // instruction footprint, short blocks, unpredictable branches,
    // deep call chains.
    {
        WorkloadProfile p = base("gcc", false, 4040.7);
        p.fracLoad = 0.26;
        p.fracStore = 0.12;
        p.fracIntMult = 0.003;
        p.fracIntDiv = 0.001;
        p.avgBlockInstrs = 4.5;
        p.takenBias = 0.58;
        p.branchPredictability = 0.72;
        p.callFraction = 0.09;
        p.avgCallDepth = 9.0;
        p.codeFootprintBytes = 512 * kB;
        p.hotCodeBytes = 64 * kB;
        p.dataFootprintBytes = 512 * kB;
        p.hotDataFraction = 0.70;
        p.fracPointerChase = 0.40;
        p.fracStrided = 0.10;
        p.strideBytes = 16;
        p.valueLocality = 0.22;
        p.avgDependencyDistance = 3.8;
        all.push_back(p);
    }

    // mesa: software 3-D rendering — very large instruction footprint
    // (the paper notes mesa stresses the I-cache far more than the
    // D-cache) and strong dependence on the branch predictor.
    {
        WorkloadProfile p = base("mesa", true, 1217.9);
        p.fracLoad = 0.24;
        p.fracStore = 0.09;
        p.fracIntMult = 0.005;
        p.fracFpAlu = 0.12;
        p.fracFpMult = 0.05;
        p.fracFpDiv = 0.004;
        p.fracFpSqrt = 0.001;
        p.avgBlockInstrs = 5.0;
        p.takenBias = 0.55;
        p.branchPredictability = 0.68;
        p.callFraction = 0.08;
        p.avgCallDepth = 6.0;
        p.codeFootprintBytes = 640 * kB;
        p.hotCodeBytes = 96 * kB;
        p.dataFootprintBytes = 48 * kB;
        p.hotDataFraction = 0.85;
        p.fracPointerChase = 0.10;
        p.fracStrided = 0.40;
        p.strideBytes = 16;
        p.valueLocality = 0.25;
        p.avgDependencyDistance = 3.5;
        all.push_back(p);
    }

    // art: neural-network image recognition — tiny kernel streaming
    // over matrices far larger than any cache: L2 size and memory
    // latency dominate.
    {
        WorkloadProfile p = base("art", true, 2181.1);
        p.fracLoad = 0.31;
        p.fracStore = 0.07;
        p.fracFpAlu = 0.22;
        p.fracFpMult = 0.10;
        p.fracFpDiv = 0.003;
        p.fracFpSqrt = 0.002;
        p.avgBlockInstrs = 9.0;
        p.takenBias = 0.85;
        p.branchPredictability = 0.95;
        p.callFraction = 0.02;
        p.avgCallDepth = 2.0;
        p.codeFootprintBytes = 24 * kB;
        p.hotCodeBytes = 8 * kB;
        p.dataFootprintBytes = 1536 * kB;
        p.hotDataFraction = 0.15;
        p.fracPointerChase = 0.35;
        p.fracStrided = 0.40;
        p.strideBytes = 8;
        p.valueLocality = 0.10;
        p.avgDependencyDistance = 4.5;
        all.push_back(p);
    }

    // mcf: network-simplex optimization — tiny code, giant
    // pointer-chased arc/node arrays; the canonical memory-bound
    // integer benchmark.
    {
        WorkloadProfile p = base("mcf", false, 601.2);
        p.fracLoad = 0.32;
        p.fracStore = 0.09;
        p.fracIntMult = 0.004;
        p.fracIntDiv = 0.001;
        p.avgBlockInstrs = 5.5;
        p.takenBias = 0.58;
        p.branchPredictability = 0.74;
        p.callFraction = 0.02;
        p.avgCallDepth = 2.0;
        p.codeFootprintBytes = 16 * kB;
        p.hotCodeBytes = 3 * kB;
        p.dataFootprintBytes = 1024 * kB;
        p.hotDataFraction = 0.20;
        p.fracPointerChase = 0.70;
        p.fracStrided = 0.10;
        p.strideBytes = 64;
        p.valueLocality = 0.12;
        p.avgDependencyDistance = 2.2;
        all.push_back(p);
    }

    // equake: finite-element earthquake simulation — large sparse
    // matrix-vector work, large code, strided with indirection.
    {
        WorkloadProfile p = base("equake", true, 713.7);
        p.fracLoad = 0.29;
        p.fracStore = 0.08;
        p.fracFpAlu = 0.18;
        p.fracFpMult = 0.09;
        p.fracFpDiv = 0.004;
        p.avgBlockInstrs = 7.0;
        p.takenBias = 0.66;
        p.branchPredictability = 0.78;
        p.callFraction = 0.04;
        p.avgCallDepth = 4.0;
        p.codeFootprintBytes = 288 * kB;
        p.hotCodeBytes = 80 * kB;
        p.dataFootprintBytes = 768 * kB;
        p.hotDataFraction = 0.60;
        p.fracPointerChase = 0.25;
        p.fracStrided = 0.45;
        p.strideBytes = 24;
        p.valueLocality = 0.12;
        p.avgDependencyDistance = 4.0;
        all.push_back(p);
    }

    // ammp: molecular dynamics — neighbor-list chasing over a large
    // footprint with expensive FP (divide/sqrt); memory latency and
    // bandwidth bound.
    {
        WorkloadProfile p = base("ammp", true, 1228.1);
        p.fracLoad = 0.30;
        p.fracStore = 0.08;
        p.fracFpAlu = 0.20;
        p.fracFpMult = 0.10;
        p.fracFpDiv = 0.015;
        p.fracFpSqrt = 0.008;
        p.avgBlockInstrs = 8.0;
        p.takenBias = 0.70;
        p.branchPredictability = 0.76;
        p.callFraction = 0.03;
        p.avgCallDepth = 3.0;
        p.codeFootprintBytes = 40 * kB;
        p.hotCodeBytes = 6 * kB;
        p.dataFootprintBytes = 1280 * kB;
        p.hotDataFraction = 0.25;
        p.fracPointerChase = 0.55;
        p.fracStrided = 0.25;
        p.strideBytes = 32;
        p.valueLocality = 0.08;
        p.avgDependencyDistance = 3.5;
        all.push_back(p);
    }

    // parser: natural-language parsing — recursive descent over a
    // dictionary: deep calls, pointer chasing, unpredictable data-
    // dependent branches.
    {
        WorkloadProfile p = base("parser", false, 2721.6);
        p.fracLoad = 0.27;
        p.fracStore = 0.10;
        p.fracIntMult = 0.003;
        p.fracIntDiv = 0.001;
        p.avgBlockInstrs = 5.0;
        p.takenBias = 0.56;
        p.branchPredictability = 0.70;
        p.callFraction = 0.08;
        p.avgCallDepth = 12.0;
        p.codeFootprintBytes = 128 * kB;
        p.hotCodeBytes = 36 * kB;
        p.dataFootprintBytes = 640 * kB;
        p.hotDataFraction = 0.65;
        p.fracPointerChase = 0.45;
        p.fracStrided = 0.10;
        p.strideBytes = 16;
        p.valueLocality = 0.20;
        p.avgDependencyDistance = 3.4;
        all.push_back(p);
    }

    // vortex: object-oriented database — large code footprint, deep
    // call chains, medium data with mixed patterns.
    {
        WorkloadProfile p = base("vortex", false, 1050.2);
        p.fracLoad = 0.28;
        p.fracStore = 0.14;
        p.fracIntMult = 0.002;
        p.avgBlockInstrs = 5.0;
        p.takenBias = 0.60;
        p.branchPredictability = 0.80;
        p.callFraction = 0.10;
        p.avgCallDepth = 10.0;
        p.codeFootprintBytes = 448 * kB;
        p.hotCodeBytes = 56 * kB;
        p.dataFootprintBytes = 512 * kB;
        p.hotDataFraction = 0.75;
        p.fracPointerChase = 0.35;
        p.fracStrided = 0.15;
        p.strideBytes = 32;
        p.valueLocality = 0.18;
        p.avgDependencyDistance = 3.0;
        all.push_back(p);
    }

    // bzip2: block-sorting compression — small code, strong value
    // locality, medium-large data with sequential sweeps.
    {
        WorkloadProfile p = base("bzip2", false, 2467.7);
        p.fracLoad = 0.25;
        p.fracStore = 0.10;
        p.fracIntMult = 0.003;
        p.fracIntDiv = 0.001;
        p.avgBlockInstrs = 6.5;
        p.takenBias = 0.63;
        p.branchPredictability = 0.80;
        p.callFraction = 0.02;
        p.avgCallDepth = 3.0;
        p.codeFootprintBytes = 32 * kB;
        p.hotCodeBytes = 8 * kB;
        p.dataFootprintBytes = 768 * kB;
        p.hotDataFraction = 0.65;
        p.fracPointerChase = 0.25;
        p.fracStrided = 0.40;
        p.strideBytes = 8;
        p.valueLocality = 0.40;
        p.avgDependencyDistance = 3.8;
        all.push_back(p);
    }

    // twolf: place-and-route — like vpr-Place (the paper groups them):
    // large code, small random-access data, branchy.
    {
        WorkloadProfile p = base("twolf", false, 764.6);
        p.fracLoad = 0.25;
        p.fracStore = 0.07;
        p.fracIntMult = 0.012;
        p.fracIntDiv = 0.005;
        p.fracFpAlu = 0.03;
        p.fracFpMult = 0.01;
        p.avgBlockInstrs = 5.0;
        p.takenBias = 0.54;
        p.branchPredictability = 0.71;
        p.callFraction = 0.06;
        p.avgCallDepth = 5.0;
        p.codeFootprintBytes = 352 * kB;
        p.hotCodeBytes = 44 * kB;
        p.dataFootprintBytes = 96 * kB;
        p.hotDataFraction = 0.78;
        p.fracPointerChase = 0.35;
        p.fracStrided = 0.15;
        p.strideBytes = 24;
        p.valueLocality = 0.20;
        p.avgDependencyDistance = 3.6;
        all.push_back(p);
    }

    for (const WorkloadProfile &p : all)
        p.validate();
    return all;
}

const std::vector<WorkloadProfile> &
allWorkloads()
{
    static const std::vector<WorkloadProfile> workloads = buildAll();
    return workloads;
}

} // namespace

std::span<const WorkloadProfile>
spec2000Workloads()
{
    return allWorkloads();
}

const WorkloadProfile &
workloadByName(const std::string &name)
{
    for (const WorkloadProfile &p : allWorkloads())
        if (p.name == name)
            return p;
    throw std::invalid_argument("workloadByName: unknown workload " +
                                name);
}

} // namespace rigor::trace
