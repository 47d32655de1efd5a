// Per-layer probes for the traced run.
//
// Each probe builds one layer's public class on its own and feeds it
// inputs derived from the workload's parameters and seed (flow population,
// CCA mix, RTTs, drop rate, qdiscs, impairments, the workload's real specs
// and results), then reports the cost of one call. Every probe and every
// timed batch of a probe is a span, so the trace shows where the probe
// time went; the spans live in the benchmark, never inside src/.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/harness/experiment.h"
#include "src/sweep/sweep_spec.h"
#include "workloads.h"

namespace perfbench {

struct MixEntry {
  std::string cca;
  double weight = 1.0;
  ccas::TimeDelta rtt = ccas::TimeDelta::millis(20);
};

struct LayerParams {
  uint64_t seed = 1;
  std::vector<MixEntry> mix;  // CCA mix of the workload's flows
  int population = 1;         // flows alive at once
  double drop_rate = 0.0;     // segment loss the TCP probes inject
  ccas::DumbbellConfig net;   // bottleneck rate, buffer, qdisc, impairments
  std::vector<ccas::QdiscConfig> qdiscs;  // the qdiscs the workload runs
  std::vector<ccas::WorkloadClass> classes;  // size draws (empty: bulk)
  ccas::sweep::SweepSpec sweep;  // specs to hash; grid of the fleet store
  const std::vector<ccas::ExperimentResult>* results = nullptr;
  std::string work_dir;
};

// Parameters of `w` at `seed`, taking the measured drop rate and in-flight
// population from an untraced rep of the same workload.
[[nodiscard]] LayerParams layer_params(const Workload& w, uint64_t seed,
                                       const Rep& untraced,
                                       const std::string& work_dir);

// Runs every probe under one root span; returns (metric, value) pairs
// named as in BENCHMARK.json's per_layer list.
[[nodiscard]] std::vector<std::pair<std::string, double>> run_layer_probes(
    const LayerParams& p, SpanRecorder& spans);

}  // namespace perfbench
