// perfbench: the measuring half of the repository benchmark.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --work-dir=<dir> [--spans=<file>]
//
// Prints one JSON object per line: a machine fingerprint, one record per
// closed-loop rep, the per-layer probe costs (traced run only) and an end
// record. run.py turns these into the benchmark's result; this program
// only measures. Untraced (--trace=0): reps back to back until --seconds
// have passed (at least kMinReps). Traced (--trace=1): one untraced rep,
// the same rep again under spans, then every per-layer probe; the spans
// are written to --spans when the run is over.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_fingerprint() {
  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  std::printf(
      "{\"kind\": \"fingerprint\", \"cpu_model\": %s, \"nproc\": %ld, "
      "\"compiler\": %s, \"build_type\": %s, \"loadavg_1m\": %s}\n",
      json_string(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_number(load[0]).c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The process's high-water RSS so far is printed with every rep: run.py
// reports the first rep's, so the figure does not depend on how many reps
// fit into --seconds.
void print_rep(const Rep& r, bool traced) {
  std::string out = "{\"kind\": \"rep\", \"traced\": ";
  out += traced ? "true" : "false";
  auto num = [&](const char* k, double v) {
    out += ", \"";
    out += k;
    out += "\": " + json_number(v);
  };
  num("wall_s", r.wall_s);
  num("cpu_s", r.cpu_s);
  num("loop_s", r.loop_s);
  num("threads", r.threads);
  num("attempted", r.attempted);
  num("failed", r.failed);
  num("utilization", r.utilization);
  num("peak_rss_mb", peak_rss_mb());
  num("setup_s", r.setup_s);
  out += ", \"digests\": [";
  for (size_t i = 0; i < r.digests.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(hex64(r.digests[i]));
  }
  out += "], \"cell_s\": [";
  for (size_t i = 0; i < r.cell_s.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(r.cell_s[i]);
  }
  out += "], \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(r.errors[i]);
  }
  out += "], \"counts\": {";
  for (size_t i = 0; i < r.counts.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(r.counts[i].first) + ": " +
           json_number(r.counts[i].second);
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a.workload = find_workload(value);
      if (a.workload == nullptr) throw std::invalid_argument("unknown workload '" + value + "'");
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (a.workload == nullptr || a.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  return a;
}

int run(const Args& a) {
  std::filesystem::create_directories(a.work_dir);
  print_fingerprint();
  size_t spans = 0;
  if (!a.trace) {
    const auto start = std::chrono::steady_clock::now();
    for (int n = 0;; ++n) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      if (n >= kMinReps && elapsed >= a.seconds) break;
      const Rep rep = run_rep(*a.workload, a.seed, a.work_dir, nullptr, false);
      print_rep(rep, false);
      if (rep.failed > 0) break;
    }
  } else {
    const Rep untraced = run_rep(*a.workload, a.seed, a.work_dir, nullptr, true);
    print_rep(untraced, false);
    SpanRecorder recorder;
    const Rep traced = run_rep(*a.workload, a.seed, a.work_dir, &recorder, false);
    print_rep(traced, true);
    if (untraced.failed == 0 && traced.failed == 0) {
      const LayerParams params = layer_params(*a.workload, a.seed, untraced, a.work_dir);
      std::string out = "{\"kind\": \"layers\", \"metrics\": {";
      bool first = true;
      for (const auto& [k, v] : run_layer_probes(params, recorder)) {
        out += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
        first = false;
      }
      std::printf("%s}}\n", out.c_str());
    }
    spans = recorder.size();
    if (!a.spans_path.empty()) {
      std::ofstream(a.spans_path) << recorder.to_json();
    }
  }
  std::printf("{\"kind\": \"end\", \"peak_rss_mb\": %s, \"spans\": %zu}\n",
              json_number(peak_rss_mb()).c_str(), spans);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
