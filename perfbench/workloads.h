// The benchmark's four workloads and one closed-loop run ("rep") of each.
//
// Every spec is built from the same flags a user would pass to ccas_run, so
// a workload can be reproduced outside the benchmark (README.md lists the
// commands). The workload seed is the only input that varies between runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.h"
#include "src/harness/experiment.h"
#include "src/sweep/sweep_spec.h"

namespace perfbench {

enum class WorkloadKind { kCorescaleBulk, kUserscaleChurn, kSweepGrid, kFleetGrid };

struct Workload {
  std::string_view name;
  WorkloadKind kind;
};

// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

// Spec of a sim workload (CoreScale bulk or userscale churn).
[[nodiscard]] ccas::ExperimentSpec sim_spec(WorkloadKind kind, uint64_t seed);
// The 120-cell EdgeScale grid both grid workloads run.
[[nodiscard]] ccas::sweep::SweepSpec grid_spec(uint64_t seed);

// Worker threads a grid workload runs its cells on (executor jobs, or
// in-process fleet workers). Sim workloads run on the calling thread.
inline constexpr int kGridThreads = 2;

// Raw outcome of one rep. Derived ratios are left to the caller (run.py),
// which owns the benchmark's arithmetic.
struct Rep {
  double wall_s = 0.0;   // whole rep, set-up included
  // Sim workloads: time inside run_experiment outside its loop. Grids:
  // building the spec (and, for sweep-grid, its fresh directories).
  double setup_s = 0.0;
  double cpu_s = 0.0;    // user + system CPU of the process during the rep
  double loop_s = 0.0;   // host seconds inside the simulation loops
  int threads = 1;
  int attempted = 0;  // runs (sim workloads) or cells (grids)
  int failed = 0;
  std::vector<std::string> errors;
  // golden_digest per run (sims) or per cell in grid order (grids).
  std::vector<uint64_t> digests;
  std::vector<double> cell_s;  // per-cell host latency (sweep-grid only)
  double utilization = 0.0;    // informational (corescale-bulk)
  // Counts read from the library's public outputs, summed over cells.
  std::vector<std::pair<std::string, double>> counts;
  // Kept for the per-layer probes (cache store/load of real results).
  std::vector<ccas::ExperimentResult> results;
};

// Runs the workload once. `work_dir` holds the grids' fresh cache,
// manifest and fleet-store directories. A non-null `spans` records the
// benchmark's calls as children of one root span.
[[nodiscard]] Rep run_rep(const Workload& w, uint64_t seed,
                          const std::string& work_dir, SpanRecorder* spans,
                          bool keep_results);

}  // namespace perfbench
