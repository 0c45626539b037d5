// Declarative specs for every figure, ablation, and extra experiment.
//
// bench/run_all hands AllExperiments() to the harness
// (harness::HarnessMain), which runs the whole suite or the experiments
// its positional filters select (harness::SelectExperiments). The paper
// commentary for each figure sits on its spec definition in
// experiments.cc.
#pragma once

#include <vector>

#include "harness/spec.h"

namespace orbit::benchexp {

harness::ExperimentSpec MotivationCacheability();   // §2.1 analysis
harness::ExperimentSpec Fig09Skewness();
harness::ExperimentSpec Fig10ServerLoads();
harness::ExperimentSpec Fig11LatencyThroughput();
harness::ExperimentSpec Fig12WriteRatio();
harness::ExperimentSpec Fig13Scalability();
harness::ExperimentSpec Fig14Production();
harness::ExperimentSpec Fig15LatencyBreakdown();
harness::ExperimentSpec Fig16CacheSize();
harness::ExperimentSpec Fig17ItemSize();
harness::ExperimentSpec Fig17EffectiveSize();       // panel (c)'s grid
harness::ExperimentSpec Fig18Dynamic();
harness::ExperimentSpec AblationCloning();
harness::ExperimentSpec AblationQueueDepth();
harness::ExperimentSpec AblationWritePolicy();
harness::ExperimentSpec AblationRecircBandwidth();
harness::ExperimentSpec RationaleRequestRecirc();   // §2.2 strawman
harness::ExperimentSpec ExtraKeySize();
harness::ExperimentSpec YcsbSuite();
// §3.9 failure handling: throughput timeline around an injected switch
// reset (controller rebuild) and a server crash/restart, with recovery
// metrics derived from the timeline.
harness::ExperimentSpec FigFailures();
// Leaf–spine scale-out (src/fabric/): aggregate saturated throughput and
// p99 latency versus rack count and skew, NoCache vs per-leaf OrbitCache.
harness::ExperimentSpec FigFabric();
// Fabric fault tolerance: throughput collapse depth and recovery time
// under spine and leaf crashes versus the failover detection window,
// across 2/4/8 racks (probe-based rerouting + graceful cache degradation).
harness::ExperimentSpec FigFabricFailover();

// Registration order is the suite order and the JSONL record order.
std::vector<harness::ExperimentSpec> AllExperiments();

}  // namespace orbit::benchexp
