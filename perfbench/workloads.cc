#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "src/check/golden.h"
#include "src/harness/cli.h"
#include "src/harness/runner.h"
#include "src/sweep/executor.h"
#include "src/sweep/fleet/store.h"
#include "src/sweep/fleet/worker.h"
#include "src/sweep/spec_hash.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Workload kWorkloads[] = {
    {"corescale-bulk", WorkloadKind::kCorescaleBulk},
    {"userscale-churn", WorkloadKind::kUserscaleChurn},
    {"sweep-grid", WorkloadKind::kSweepGrid},
    {"fleet-grid", WorkloadKind::kFleetGrid},
};

constexpr size_t kGridCells = 120;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

ccas::ExperimentSpec spec_from_flags(const std::vector<std::string>& flags) {
  ccas::ExperimentSpec spec = ccas::parse_cli(flags).spec;
  // Environment defaults parse_cli honours (CCAS_SHARDS, CCAS_CHECK) must
  // not change what the benchmark measures.
  spec.shards = 1;
  spec.audit = false;
  return spec;
}

std::string fresh_dir(const std::string& work_dir, const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  const std::string dir = work_dir + "/" + tag + "-" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// Sums the counts a result carries into `c` (same keys, in order).
void add_counts(const ccas::ExperimentResult& r,
                std::vector<std::pair<std::string, double>>& c) {
  const ccas::SimProfile& p = r.sim_profile;
  uint64_t seg_sent = 0;
  uint64_t retx = 0;
  for (const ccas::FlowMeasurement& f : r.flows) {
    seg_sent += f.segments_sent;
    retx += f.retransmits;
  }
  uint64_t arrivals = 0, completed = 0, rejected = 0, abandoned = 0;
  for (const ccas::WorkloadClassResult& wc : r.workload_classes) {
    arrivals += wc.arrivals;
    completed += wc.completed;
    rejected += wc.rejected;
    abandoned += wc.abandoned;
  }
  const std::pair<const char*, double> values[] = {
      // Results read back from a store carry no profile; sim_events is
      // serialized with the result, so it stands in for the dispatch count.
      {"events", static_cast<double>(p.events_dispatched > 0 ? p.events_dispatched
                                                             : r.sim_events)},
      {"measure_events", static_cast<double>(r.measure_sim_events)},
      {"pushes_due", static_cast<double>(p.pushes_due)},
      {"pushes_wheel", static_cast<double>(p.pushes_wheel)},
      {"pushes_overflow", static_cast<double>(p.pushes_overflow)},
      {"wheel_cascades", static_cast<double>(p.wheel_cascades)},
      {"timer_wasted", static_cast<double>(p.timer_wasted_wakeups())},
      {"heap_allocs", static_cast<double>(p.heap_allocs)},
      {"impair_drops", static_cast<double>(p.impair_drops)},
      {"qdisc_head_drops", static_cast<double>(p.qdisc_head_drops)},
      {"queue_enqueued", static_cast<double>(r.queue.enqueued_packets)},
      {"queue_dropped", static_cast<double>(r.queue.dropped_packets)},
      {"segments_sent", static_cast<double>(seg_sent)},
      {"retransmits", static_cast<double>(retx)},
      {"fixed_flows", static_cast<double>(r.flows.size())},
      {"wl_arrivals", static_cast<double>(arrivals)},
      {"wl_completed", static_cast<double>(completed)},
      {"wl_rejected", static_cast<double>(rejected)},
      {"wl_in_flight_end", static_cast<double>(abandoned)},
  };
  if (c.empty()) {
    for (const auto& [k, v] : values) c.emplace_back(k, v);
    return;
  }
  for (size_t i = 0; i < c.size(); ++i) c[i].second += values[i].second;
}

void set_count(std::vector<std::pair<std::string, double>>& c, const char* key,
               double v) {
  for (auto& kv : c) {
    if (kv.first == key) {
      kv.second = v;
      return;
    }
  }
  c.emplace_back(key, v);
}

// Output checks beyond the digest: a result that is well formed for the
// spec that produced it. Empty string when it passes.
std::string check_result(const ccas::ExperimentSpec& spec,
                         const ccas::ExperimentResult& r) {
  if (r.sim_events == 0) return "no events simulated";
  if (static_cast<int>(r.flows.size()) != spec.total_flows()) {
    return "flow measurements do not match the spec's flow count";
  }
  if (spec.total_flows() > 0 && !(r.aggregate_goodput_bps > 0.0)) {
    return "fixed flows delivered nothing";
  }
  if (spec.workload.enabled()) {
    if (r.workload_classes.size() != spec.workload.classes.size()) {
      return "workload class summaries do not match the spec";
    }
    uint64_t completed = 0;
    for (const ccas::WorkloadClassResult& c : r.workload_classes) {
      if (c.arrivals != c.rejected + c.completed + c.abandoned) {
        return "workload class '" + c.name + "' loses sessions";
      }
      completed += c.completed;
    }
    if (completed == 0) return "no workload flow completed";
  }
  return {};
}

Rep run_sim(WorkloadKind kind, uint64_t seed, SpanRecorder* spans, int root,
            bool keep_results) {
  Rep rep;
  rep.attempted = 1;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  ccas::ExperimentSpec spec;
  {
    ScopedSpan s(spans, "harness.build_spec", root);
    spec = sim_spec(kind, seed);
  }
  ccas::ExperimentResult result;
  const Clock::time_point t_run = Clock::now();
  {
    ScopedSpan s(spans, "harness.run_experiment", root);
    result = ccas::run_experiment(spec);
  }
  const double run_s = seconds_since(t_run);
  rep.wall_s = seconds_since(t0);
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.loop_s = result.sim_profile.wall_seconds;
  rep.setup_s = run_s - rep.loop_s;
  {
    ScopedSpan s(spans, "check.golden_digest", root);
    rep.digests.push_back(ccas::check::golden_digest(spec, result));
  }
  if (std::string err = check_result(spec, result); !err.empty()) {
    rep.failed = 1;
    rep.errors.push_back(std::move(err));
  }
  rep.utilization = result.utilization;
  add_counts(result, rep.counts);
  if (keep_results) rep.results.push_back(std::move(result));
  return rep;
}

Rep run_sweep_grid(uint64_t seed, const std::string& work_dir,
                   SpanRecorder* spans, int root, bool keep_results) {
  Rep rep;
  rep.threads = kGridThreads;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  ccas::sweep::SweepSpec sweep;
  ccas::sweep::SweepOptions opts;
  {
    ScopedSpan s(spans, "sweep.setup", root);
    sweep = grid_spec(seed);
    opts.jobs = kGridThreads;
    opts.progress = false;
    opts.cache_dir = fresh_dir(work_dir, "cache");
    opts.resume_dir = fresh_dir(work_dir, "resume");
  }
  rep.setup_s = seconds_since(t0);
  ccas::sweep::SweepExecutor executor(opts);
  std::vector<ccas::sweep::CellOutcome> outcomes;
  {
    ScopedSpan s(spans, "sweep.executor_run", root);
    outcomes = executor.run(sweep);
  }
  rep.wall_s = seconds_since(t0);
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.attempted = static_cast<int>(sweep.cells.size());
  ScopedSpan digest_span(spans, "check.golden_digest", root);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ccas::sweep::CellOutcome& o = outcomes[i];
    std::string err;
    if (o.status != ccas::sweep::CellStatus::kOk) {
      err = o.failure ? o.failure->what : "cell skipped";
    } else if (o.from_cache || o.resumed) {
      err = "cell served from a fresh cache";
    } else {
      err = check_result(sweep.cells[i].spec, o.result);
    }
    if (!err.empty()) {
      ++rep.failed;
      rep.errors.push_back(o.name + ": " + err);
      rep.digests.push_back(0);
      continue;
    }
    rep.digests.push_back(ccas::check::golden_digest(sweep.cells[i].spec, o.result));
    rep.cell_s.push_back(o.wall_sec);
    rep.loop_s += o.result.sim_profile.wall_seconds;
    add_counts(o.result, rep.counts);
    if (keep_results) rep.results.push_back(std::move(o.result));
  }
  const ccas::sweep::SweepSummary& sum = executor.summary();
  set_count(rep.counts, "sweep_retries", sum.retries);
  set_count(rep.counts, "sweep_failed", sum.failed);
  set_count(rep.counts, "cells_ok", static_cast<double>(rep.cell_s.size()));
  std::filesystem::remove_all(opts.cache_dir);
  std::filesystem::remove_all(opts.resume_dir);
  return rep;
}

Rep run_fleet_grid(uint64_t seed, const std::string& work_dir,
                   SpanRecorder* spans, int root, bool keep_results) {
  Rep rep;
  rep.threads = kGridThreads;
  const std::string salt(ccas::sweep::kSweepCodeSalt);
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  ccas::sweep::SweepSpec sweep;
  // Set-up is the grid's spec, as for sweep-grid. Creating the store is
  // fsync-bound and spreads several-fold from run to run, so it counts in
  // the rep's wall time and in fleet.store_open_ms, not in setup_s.
  {
    ScopedSpan s(spans, "sweep.setup", root);
    sweep = grid_spec(seed);
  }
  rep.setup_s = seconds_since(t0);
  const std::string dir = fresh_dir(work_dir, "fleet");
  {
    ScopedSpan s(spans, "fleet.store_open", root);
    ccas::sweep::fleet::FleetStore store(dir, sweep, salt);
  }

  std::vector<ccas::sweep::fleet::FleetSummary> summaries(kGridThreads);
  std::vector<std::string> thread_errors(kGridThreads);
  {
    // jthreads join on every exit path, including a failed thread start.
    std::vector<std::jthread> workers;
    for (int w = 0; w < kGridThreads; ++w) {
      workers.emplace_back([&, w] {
        ScopedSpan s(spans, "fleet.worker_run", root);
        try {
          ccas::sweep::fleet::FleetOptions fo;
          fo.dir = dir;
          fo.worker_id = "bench-w" + std::to_string(w);
          fo.cache_salt = salt;
          fo.progress = false;
          summaries[static_cast<size_t>(w)] =
              ccas::sweep::fleet::FleetWorker(fo).run(sweep);
        } catch (const std::exception& e) {
          thread_errors[static_cast<size_t>(w)] = e.what();
        }
      });
    }
  }
  rep.wall_s = seconds_since(t0);
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.attempted = static_cast<int>(sweep.cells.size());

  double computed = 0, adopted = 0, lost = 0;
  for (int w = 0; w < kGridThreads; ++w) {
    const auto& s = summaries[static_cast<size_t>(w)];
    if (!thread_errors[static_cast<size_t>(w)].empty()) {
      rep.errors.push_back("worker " + std::to_string(w) + ": " +
                           thread_errors[static_cast<size_t>(w)]);
    } else if (!s.complete || s.exit_code != 0 || s.failed != 0) {
      rep.errors.push_back("worker " + std::to_string(w) + " ended with exit code " +
                           std::to_string(s.exit_code));
    }
    computed += s.computed;
    adopted += s.adopted;
    lost += s.lost_leases;
  }

  ScopedSpan digest_span(spans, "check.golden_digest", root);
  {
    ccas::sweep::fleet::FleetStore store(dir, salt);
    int cells_ok = 0;
    for (const ccas::sweep::SweepCell& cell : sweep.cells) {
      const uint64_t key = ccas::sweep::spec_cache_key(cell.spec, salt);
      const auto rec = store.manifest().lookup(key);
      std::optional<ccas::ExperimentResult> result = store.results().load(key);
      std::string err;
      if (!rec || !rec->ok) {
        err = "no ok manifest record";
      } else if (!result) {
        err = "result missing from the store";
      } else {
        err = check_result(cell.spec, *result);
      }
      if (!err.empty()) {
        ++rep.failed;
        rep.errors.push_back(cell.name + ": " + err);
        rep.digests.push_back(0);
        continue;
      }
      ++cells_ok;
      rep.digests.push_back(ccas::check::golden_digest(cell.spec, *result));
      add_counts(*result, rep.counts);
      if (keep_results) rep.results.push_back(std::move(*result));
    }
    set_count(rep.counts, "cells_ok", cells_ok);
  }
  if (!rep.errors.empty() && rep.failed == 0) rep.failed = 1;
  set_count(rep.counts, "fleet_computed", computed);
  set_count(rep.counts, "fleet_adopted", adopted);
  set_count(rep.counts, "fleet_lost_leases", lost);
  std::filesystem::remove_all(dir);
  return rep;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ccas::ExperimentSpec sim_spec(WorkloadKind kind, uint64_t seed) {
  const std::string seed_flag = "--seed=" + std::to_string(seed);
  if (kind == WorkloadKind::kCorescaleBulk) {
    return spec_from_flags({"--setting=core",
                            "--groups=newreno:2000:20,cubic:2000:80,bbr:1000:40",
                            "--stagger=0.5", "--warmup=1", "--measure=2", seed_flag});
  }
  if (kind == WorkloadKind::kUserscaleChurn) {
    return spec_from_flags(
        {"--setting=core", "--workload=poisson:5000",
         "--workload-class=web:0.6:cubic:20:pareto/1.2/2/200:web/8/2",
         "--workload-class=rpc:0.3:bbr:40:lognormal/2/1/1/100:rr/4/5",
         "--workload-class=video:0.1:newreno:80:fixed/400:video/40/100",
         "--workload-max=16384", "--stagger=0", "--warmup=0", "--measure=10",
         seed_flag});
  }
  throw std::invalid_argument("sim_spec: not a sim workload");
}

ccas::sweep::SweepSpec grid_spec(uint64_t seed) {
  ccas::sweep::SweepSpec sweep;
  sweep.name = "perfbench-grid";
  sweep.base_seed = seed;
  const char* ccas_[] = {"newreno", "cubic", "bbr"};
  const char* qdiscs[] = {"drop-tail", "fq-codel", "codel"};
  // Replicas of the 18-cell cross until 120 cells: the last replica is
  // partial, so the grid has 120 latency samples (p90 keeps 12 beyond it).
  for (int replica = 0; sweep.cells.size() < kGridCells; ++replica) {
    for (const bool impaired : {false, true}) {
      for (const char* q : qdiscs) {
        for (const char* c : ccas_) {
          if (sweep.cells.size() == kGridCells) break;
          std::vector<std::string> flags = {
              "--setting=edge", std::string("--groups=") + c + ":10:40",
              std::string("--qdisc=") + q, "--stagger=0.5", "--warmup=1",
              "--measure=3"};
          if (impaired) {
            flags.emplace_back("--loss=0.005");
            flags.emplace_back("--reorder=0.01:2");
          }
          sweep.add_cell_derived_seed(std::string("edge/") + c + "/" + q + "/" +
                                          (impaired ? "impaired" : "clean") +
                                          "/r" + std::to_string(replica),
                                      spec_from_flags(flags));
        }
      }
    }
  }
  return sweep;
}

Rep run_rep(const Workload& w, uint64_t seed, const std::string& work_dir,
            SpanRecorder* spans, bool keep_results) {
  ScopedSpan root(spans, "run." + std::string(w.name));
  switch (w.kind) {
    case WorkloadKind::kCorescaleBulk:
    case WorkloadKind::kUserscaleChurn:
      return run_sim(w.kind, seed, spans, root.id(), keep_results);
    case WorkloadKind::kSweepGrid:
      return run_sweep_grid(seed, work_dir, spans, root.id(), keep_results);
    case WorkloadKind::kFleetGrid:
      return run_fleet_grid(seed, work_dir, spans, root.id(), keep_results);
  }
  throw std::logic_error("unhandled workload kind");
}

}  // namespace perfbench
