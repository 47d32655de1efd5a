#include "src/harness/cli.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>

#include "src/cca/cca.h"
#include "src/util/rng.h"

namespace ccas {

namespace {

// Splits "a,b,c" into pieces.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

double parse_number(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("bad numeric value for " + flag + ": '" + value + "'");
  }
  return v;
}

// Count-like flags (--jobs, --seed, --seeds) take strict integers: "2.5"
// or "1e3" silently truncating to a worker count or a different RNG seed
// is exactly the kind of quiet misconfiguration a sweep can't detect.
int64_t parse_integer(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    throw std::invalid_argument("bad integer value for " + flag + ": '" + value + "'");
  }
  return v;
}

double parse_probability(const std::string& flag, const std::string& value) {
  const double p = parse_number(flag, value);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(flag + " must be a probability in [0, 1]");
  }
  return p;
}

// Parses "sec:value[,sec:value...]" fault schedules; times must be
// strictly increasing within one flag (cross-flag ties are caught by the
// final ImpairmentConfig::validate()).
void parse_fault_schedule(const std::string& flag, const std::string& value,
                          std::vector<LinkFault>& out,
                          const std::function<LinkFault(double, const std::string&)>& make) {
  double prev = -1.0;
  for (const auto& entry : split(value, ',')) {
    const auto parts = split(entry, ':');
    if (parts.size() != 2) {
      throw std::invalid_argument("bad " + flag + " entry '" + entry +
                                  "' (want sec:value)");
    }
    const double at = parse_number(flag + " time", parts[0]);
    if (at < 0.0) throw std::invalid_argument(flag + " times must be >= 0");
    if (at <= prev) {
      throw std::invalid_argument(flag + " schedule must be strictly increasing");
    }
    prev = at;
    out.push_back(make(at, parts[1]));
  }
}

FlowGroup parse_group(const std::string& text) {
  const auto parts = split(text, ':');
  if (parts.size() != 3) {
    throw std::invalid_argument("bad --groups entry '" + text +
                                "' (want cca:count:rtt_ms)");
  }
  FlowGroup g;
  g.cca = parts[0];
  Rng probe(0);
  (void)make_cca(g.cca, probe);  // validate the name early
  g.count = static_cast<int>(parse_number("--groups count", parts[1]));
  if (g.count <= 0) throw std::invalid_argument("group count must be positive");
  const double rtt_ms = parse_number("--groups rtt", parts[2]);
  if (rtt_ms <= 0.0) throw std::invalid_argument("group RTT must be positive");
  g.rtt = TimeDelta::seconds_f(rtt_ms / 1e3);
  return g;
}

// Parses the size_spec field of --workload-class. '/' separates the
// sub-fields so the class spec itself can keep ':' as its separator.
SizeDist parse_size_spec(const std::string& text) {
  const auto parts = split(text, '/');
  SizeDist d;
  if (parts[0] == "pareto") {
    if (parts.size() != 4) {
      throw std::invalid_argument("bad size spec '" + text +
                                  "' (want pareto/<alpha>/<min_segs>/<max_segs>)");
    }
    d.kind = SizeDistKind::kPareto;
    d.pareto_alpha = parse_number("--workload-class pareto alpha", parts[1]);
    if (d.pareto_alpha <= 0.0) {
      throw std::invalid_argument("--workload-class pareto alpha must be positive");
    }
    const int64_t lo = parse_integer("--workload-class size min", parts[2]);
    const int64_t hi = parse_integer("--workload-class size max", parts[3]);
    if (lo < 1 || hi < lo) {
      throw std::invalid_argument(
          "--workload-class size bounds need 1 <= min <= max");
    }
    d.min_segments = static_cast<uint64_t>(lo);
    d.max_segments = static_cast<uint64_t>(hi);
  } else if (parts[0] == "lognormal") {
    if (parts.size() != 5) {
      throw std::invalid_argument(
          "bad size spec '" + text +
          "' (want lognormal/<mu>/<sigma>/<min_segs>/<max_segs>)");
    }
    d.kind = SizeDistKind::kLognormal;
    d.lognormal_mu = parse_number("--workload-class lognormal mu", parts[1]);
    d.lognormal_sigma = parse_number("--workload-class lognormal sigma", parts[2]);
    if (d.lognormal_sigma <= 0.0) {
      throw std::invalid_argument(
          "--workload-class lognormal sigma must be positive");
    }
    const int64_t lo = parse_integer("--workload-class size min", parts[3]);
    const int64_t hi = parse_integer("--workload-class size max", parts[4]);
    if (lo < 1 || hi < lo) {
      throw std::invalid_argument(
          "--workload-class size bounds need 1 <= min <= max");
    }
    d.min_segments = static_cast<uint64_t>(lo);
    d.max_segments = static_cast<uint64_t>(hi);
  } else if (parts[0] == "fixed") {
    if (parts.size() != 2) {
      throw std::invalid_argument("bad size spec '" + text +
                                  "' (want fixed/<segments>)");
    }
    d.kind = SizeDistKind::kFixed;
    const int64_t segs = parse_integer("--workload-class fixed size", parts[1]);
    if (segs < 1) {
      throw std::invalid_argument("--workload-class fixed size must be >= 1");
    }
    d.fixed_segments = static_cast<uint64_t>(segs);
    d.min_segments = d.fixed_segments;
    d.max_segments = d.fixed_segments;
  } else if (parts[0] == "cdf") {
    // The path may itself contain '/', so take everything after "cdf/".
    if (parts.size() < 2 || text.size() <= 4) {
      throw std::invalid_argument("bad size spec '" + text + "' (want cdf/<path>)");
    }
    d.kind = SizeDistKind::kEmpirical;
    d.empirical_path = text.substr(4);
    d.empirical = parse_empirical_cdf_file(d.empirical_path);
  } else {
    throw std::invalid_argument(
        "bad size spec '" + text +
        "' (want pareto/..., lognormal/..., fixed/... or cdf/<path>)");
  }
  return d;
}

// Parses the app_spec field of --workload-class into c.app / burst / gap.
void parse_app_spec(const std::string& text, WorkloadClass& c) {
  const auto parts = split(text, '/');
  if (parts[0] == "bulk") {
    if (parts.size() != 1) {
      throw std::invalid_argument("bad app spec '" + text + "' (bulk takes no args)");
    }
    c.app = AppModel::kBulk;
    return;
  }
  if (parts.size() != 3) {
    throw std::invalid_argument(
        "bad app spec '" + text +
        "' (want bulk, rr/<burst>/<think_ms>, web/<burst>/<gap_ms> or "
        "video/<chunk>/<interval_ms>)");
  }
  if (parts[0] == "rr") {
    c.app = AppModel::kRequestResponse;
  } else if (parts[0] == "web") {
    c.app = AppModel::kWebObject;
  } else if (parts[0] == "video") {
    c.app = AppModel::kVideoChunk;
  } else {
    throw std::invalid_argument(
        "bad app spec '" + text + "' (unknown model '" + parts[0] + "')");
  }
  const int64_t burst = parse_integer("--workload-class app burst", parts[1]);
  if (burst < 1) {
    throw std::invalid_argument("--workload-class app burst must be >= 1");
  }
  c.app_burst_segments = static_cast<uint64_t>(burst);
  const double ms = parse_number("--workload-class app time", parts[2]);
  if (ms < 0.0 || (parts[0] == "video" && ms <= 0.0)) {
    throw std::invalid_argument(parts[0] == "video"
                                    ? "--workload-class video interval must be positive"
                                    : "--workload-class app time must be >= 0");
  }
  c.app_gap = TimeDelta::seconds_f(ms / 1e3);
}

WorkloadClass parse_workload_class(const std::string& text) {
  const auto parts = split(text, ':');
  if (parts.size() != 6) {
    throw std::invalid_argument(
        "bad --workload-class '" + text +
        "' (want name:weight:cca:rtt_ms:size_spec:app_spec)");
  }
  WorkloadClass c;
  c.name = parts[0];
  if (c.name.empty()) {
    throw std::invalid_argument("--workload-class name must be non-empty");
  }
  c.weight = parse_number("--workload-class weight", parts[1]);
  if (!(c.weight > 0.0)) {
    throw std::invalid_argument("--workload-class weight must be positive");
  }
  c.cca = parts[2];
  Rng probe(0);
  (void)make_cca(c.cca, probe);  // validate the name early
  const double rtt_ms = parse_number("--workload-class rtt", parts[3]);
  if (rtt_ms <= 0.0) {
    throw std::invalid_argument("--workload-class RTT must be positive");
  }
  c.rtt = TimeDelta::seconds_f(rtt_ms / 1e3);
  c.size = parse_size_spec(parts[4]);
  parse_app_spec(parts[5], c);
  return c;
}

}  // namespace

std::string cli_usage() {
  return "usage: ccas_run --groups=cca:count:rtt_ms[,...] [options]\n"
         "       ccas_run --workload=poisson:<per_sec> --workload-class=... "
         "[options]\n"
         "  --setting=edge|core   scenario preset (default core)\n"
         "  --rate=<mbps>         bottleneck rate override\n"
         "  --buffer=<bytes>      buffer size override\n"
         "  --qdisc=<name>        bottleneck queue discipline: drop-tail\n"
         "                        (default), codel, fq-codel, pie, red\n"
         "  --ecn                 mark instead of drop (AQM qdiscs only)\n"
         "  --codel=<target_ms>:<interval_ms>  CoDel / FQ-CoDel knobs\n"
         "  --fq=<flows>:<quantum_bytes>       FQ-CoDel flow table and quantum\n"
         "  --pie=<target_ms>:<tupdate_ms>     PIE knobs\n"
         "  --red=<min_bytes>:<max_bytes>[:<max_p>]  RED thresholds (0:0 = auto)\n"
         "  --workload=poisson:<per_sec>|fixed:<per_sec>\n"
         "                        open-loop session arrivals (with or without\n"
         "                        --groups; groups then run as background flows)\n"
         "  --workload-class=<name>:<weight>:<cca>:<rtt_ms>:<size>:<app>\n"
         "                        repeatable; weights must sum to 1\n"
         "                        size: pareto/<alpha>/<min>/<max> |\n"
         "                              lognormal/<mu>/<sigma>/<min>/<max> |\n"
         "                              fixed/<segments> | cdf/<path>\n"
         "                        app:  bulk | rr/<burst>/<think_ms> |\n"
         "                              web/<burst>/<gap_ms> |\n"
         "                              video/<chunk>/<interval_ms>\n"
         "  --workload-max=<n>    admission cap on concurrent workload flows\n"
         "  --stagger=<sec> --warmup=<sec> --measure=<sec>\n"
         "  --seed=<n>            RNG seed (default 1)\n"
         "  --jitter=<microsec>   forward-path jitter (default 500)\n"
         "  --loss=<p>            i.i.d. exogenous loss probability\n"
         "  --ge-loss=<p_gb>:<p_bg>:<loss_bad>[:<loss_good>]\n"
         "                        Gilbert-Elliott bursty loss chain\n"
         "  --dup=<p>             duplication probability\n"
         "  --reorder=<p>:<max_ms> delay-swap reordering (bounded window)\n"
         "  --link-jitter=<microsec>[:uniform|normal]\n"
         "                        per-packet wire jitter (impairment stage)\n"
         "  --flap=<down_s>:<up_s>[,...]   link down/up fault windows\n"
         "  --rate-change=<sec>:<mbps>[,...]   scheduled rate faults\n"
         "  --buffer-change=<sec>:<bytes>[,...] scheduled buffer faults\n"
         "  --no-sack --no-delack --no-gro\n"
         "  --rto-slack=<microsec> coalesce RTO re-arms within this slack\n"
         "                        (0 = exact timing, the default)\n"
         "  --perf                print the kernel profiler summary per cell\n"
         "  --trace=<sec>         time-series sampling interval (0 = off)\n"
         "  --csv=<prefix>        write trace CSVs with this prefix\n"
         "  --seeds=<n,n,...>     run one cell per seed (parallel sweep)\n"
         "  --jobs=<n>            worker threads (default: hardware concurrency)\n"
         "  --cache-dir=<path>    enable the on-disk result cache\n"
         "  --no-cache            bypass the cache even if a dir is set\n"
         "  --cell-timeout=<sec>  wall-clock watchdog per cell attempt\n"
         "  --cell-events=<n>     simulated-event ceiling per cell attempt\n"
         "  --cell-rss=<mb>       estimated-peak-RSS ceiling per cell attempt\n"
         "  --retries=<n>         retries for transient failures, 0-16 (default 2)\n"
         "  --max-failures=<n>    abort the sweep after n terminal cell failures\n"
         "  --resume=<dir>        resumable manifest; journaled-ok cells are skipped\n"
         "  --quarantine=<dir>    where failed cells write .repro replay files\n"
         "  --fail-fast           abort on the first failure and exit nonzero\n"
         "Exit codes: 0 ok, 1 usage/config, 2 deterministic cell failure,\n"
         "            3 budget exceeded, 4 transient failure after retries\n"
         "CCAs: newreno, cubic, bbr, bbr2, vegas, copa (plus registry extensions)\n";
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions opts;
  opts.spec.scenario = Scenario::core_scale();
  opts.sweep = sweep::sweep_options_from_env();
  bool have_groups = false;
  bool have_rate = false;
  bool have_buffer = false;
  std::string rate_value;
  std::string buffer_value;

  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    auto need_value = [&] {
      if (value.empty()) throw std::invalid_argument(key + " needs a value");
    };

    if (key == "--setting") {
      need_value();
      if (value == "edge") {
        opts.spec.scenario = Scenario::edge_scale();
      } else if (value == "core") {
        opts.spec.scenario = Scenario::core_scale();
      } else {
        throw std::invalid_argument("--setting must be edge or core");
      }
    } else if (key == "--rate") {
      need_value();
      have_rate = true;
      rate_value = value;
    } else if (key == "--buffer") {
      need_value();
      have_buffer = true;
      buffer_value = value;
    } else if (key == "--qdisc") {
      need_value();
      opts.spec.scenario.net.qdisc.kind = qdisc_kind_from_name(value);
    } else if (key == "--ecn") {
      if (!value.empty()) throw std::invalid_argument("--ecn takes no value");
      opts.spec.scenario.net.qdisc.ecn = true;
    } else if (key == "--codel") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() != 2) {
        throw std::invalid_argument("bad --codel '" + value +
                                    "' (want target_ms:interval_ms)");
      }
      QdiscConfig& qd = opts.spec.scenario.net.qdisc;
      const double target_ms = parse_number("--codel target", parts[0]);
      const double interval_ms = parse_number("--codel interval", parts[1]);
      if (target_ms <= 0.0 || interval_ms <= 0.0) {
        throw std::invalid_argument("--codel target and interval must be positive");
      }
      qd.codel_target = TimeDelta::seconds_f(target_ms / 1e3);
      qd.codel_interval = TimeDelta::seconds_f(interval_ms / 1e3);
    } else if (key == "--fq") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() != 2) {
        throw std::invalid_argument("bad --fq '" + value +
                                    "' (want flows:quantum_bytes)");
      }
      QdiscConfig& qd = opts.spec.scenario.net.qdisc;
      const int64_t flows = parse_integer("--fq flows", parts[0]);
      const int64_t quantum = parse_integer("--fq quantum", parts[1]);
      if (flows <= 0) throw std::invalid_argument("--fq flows must be positive");
      if (quantum <= 0) throw std::invalid_argument("--fq quantum must be positive");
      qd.fq_flows = static_cast<uint32_t>(flows);
      qd.fq_quantum = static_cast<int64_t>(quantum);
    } else if (key == "--pie") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() != 2) {
        throw std::invalid_argument("bad --pie '" + value +
                                    "' (want target_ms:tupdate_ms)");
      }
      QdiscConfig& qd = opts.spec.scenario.net.qdisc;
      const double target_ms = parse_number("--pie target", parts[0]);
      const double tupdate_ms = parse_number("--pie tupdate", parts[1]);
      if (target_ms <= 0.0) {
        throw std::invalid_argument("--pie target must be positive");
      }
      qd.pie_target = TimeDelta::seconds_f(target_ms / 1e3);
      // Non-positive tupdate flows into QdiscConfig::validate(), which
      // rejects it only when the PIE qdisc is actually selected.
      qd.pie_tupdate = TimeDelta::seconds_f(tupdate_ms / 1e3);
    } else if (key == "--red") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() != 2 && parts.size() != 3) {
        throw std::invalid_argument("bad --red '" + value +
                                    "' (want min_bytes:max_bytes[:max_p])");
      }
      QdiscConfig& qd = opts.spec.scenario.net.qdisc;
      const int64_t min_b = parse_integer("--red min", parts[0]);
      const int64_t max_b = parse_integer("--red max", parts[1]);
      if (min_b < 0 || max_b < 0) {
        throw std::invalid_argument("--red thresholds must be >= 0");
      }
      qd.red_min_bytes = min_b;
      qd.red_max_bytes = max_b;
      if (parts.size() == 3) {
        qd.red_max_p = parse_probability("--red max_p", parts[2]);
      }
    } else if (key == "--groups") {
      need_value();
      for (const auto& g : split(value, ',')) {
        opts.spec.groups.push_back(parse_group(g));
      }
      have_groups = true;
    } else if (key == "--workload") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() != 2) {
        throw std::invalid_argument("bad --workload '" + value +
                                    "' (want poisson:<per_sec> or fixed:<per_sec>)");
      }
      WorkloadSpec& wl = opts.spec.workload;
      if (parts[0] == "poisson") {
        wl.arrival = ArrivalKind::kPoisson;
      } else if (parts[0] == "fixed") {
        wl.arrival = ArrivalKind::kDeterministic;
      } else {
        throw std::invalid_argument("--workload arrival process must be poisson "
                                    "or fixed");
      }
      wl.arrivals_per_sec = parse_number("--workload rate", parts[1]);
      if (!(wl.arrivals_per_sec > 0.0) || !std::isfinite(wl.arrivals_per_sec)) {
        throw std::invalid_argument(
            "--workload arrival rate must be positive and finite");
      }
    } else if (key == "--workload-class") {
      need_value();
      opts.spec.workload.classes.push_back(parse_workload_class(value));
    } else if (key == "--workload-max") {
      need_value();
      const int64_t v = parse_integer(key, value);
      // 0 means "unlimited" internally; that's the *default* when the flag
      // is absent. An explicit --workload-max=0 is a typo'd admission cap.
      if (v <= 0) throw std::invalid_argument("--workload-max must be positive");
      opts.spec.workload.max_concurrent = static_cast<uint64_t>(v);
    } else if (key == "--stagger") {
      need_value();
      opts.spec.scenario.stagger = TimeDelta::seconds_f(parse_number(key, value));
    } else if (key == "--warmup") {
      need_value();
      opts.spec.scenario.warmup = TimeDelta::seconds_f(parse_number(key, value));
    } else if (key == "--measure") {
      need_value();
      opts.spec.scenario.measure = TimeDelta::seconds_f(parse_number(key, value));
    } else if (key == "--seed") {
      need_value();
      const int64_t v = parse_integer(key, value);
      if (v < 0) throw std::invalid_argument("--seed must be >= 0");
      opts.spec.seed = static_cast<uint64_t>(v);
    } else if (key == "--jitter") {
      need_value();
      opts.spec.scenario.net.jitter =
          TimeDelta::seconds_f(parse_number(key, value) / 1e6);
    } else if (key == "--loss") {
      need_value();
      opts.spec.scenario.net.impairments.loss = parse_probability(key, value);
    } else if (key == "--ge-loss") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() != 3 && parts.size() != 4) {
        throw std::invalid_argument(
            "bad --ge-loss '" + value +
            "' (want p_good_to_bad:p_bad_to_good:loss_bad[:loss_good])");
      }
      GilbertElliottConfig& ge = opts.spec.scenario.net.impairments.ge;
      ge.p_good_to_bad = parse_probability("--ge-loss p_good_to_bad", parts[0]);
      ge.p_bad_to_good = parse_probability("--ge-loss p_bad_to_good", parts[1]);
      ge.loss_bad = parse_probability("--ge-loss loss_bad", parts[2]);
      ge.loss_good =
          parts.size() == 4 ? parse_probability("--ge-loss loss_good", parts[3]) : 0.0;
      if (ge.p_good_to_bad > 0.0 && ge.p_bad_to_good <= 0.0) {
        throw std::invalid_argument(
            "--ge-loss p_bad_to_good must be positive (the bad state must be "
            "leavable)");
      }
    } else if (key == "--dup") {
      need_value();
      opts.spec.scenario.net.impairments.duplicate = parse_probability(key, value);
    } else if (key == "--reorder") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() != 2) {
        throw std::invalid_argument("bad --reorder '" + value +
                                    "' (want probability:max_delay_ms)");
      }
      ImpairmentConfig& imp = opts.spec.scenario.net.impairments;
      imp.reorder = parse_probability("--reorder probability", parts[0]);
      const double ms = parse_number("--reorder max_delay", parts[1]);
      if (ms <= 0.0) {
        throw std::invalid_argument("--reorder max delay must be positive");
      }
      imp.reorder_delay = TimeDelta::seconds_f(ms / 1e3);
    } else if (key == "--link-jitter") {
      need_value();
      const auto parts = split(value, ':');
      if (parts.size() > 2) {
        throw std::invalid_argument("bad --link-jitter '" + value +
                                    "' (want microsec[:uniform|normal])");
      }
      ImpairmentConfig& imp = opts.spec.scenario.net.impairments;
      const double us = parse_number("--link-jitter", parts[0]);
      if (us < 0.0) throw std::invalid_argument("--link-jitter must be >= 0");
      imp.jitter = TimeDelta::seconds_f(us / 1e6);
      if (parts.size() == 2) {
        if (parts[1] == "uniform") {
          imp.jitter_dist = ImpairmentConfig::JitterDist::kUniform;
        } else if (parts[1] == "normal") {
          imp.jitter_dist = ImpairmentConfig::JitterDist::kNormal;
        } else {
          throw std::invalid_argument(
              "--link-jitter distribution must be uniform or normal");
        }
      }
    } else if (key == "--flap") {
      need_value();
      // Each entry is one down:up window; windows must not overlap.
      double prev = -1.0;
      for (const auto& entry : split(value, ',')) {
        const auto parts = split(entry, ':');
        if (parts.size() != 2) {
          throw std::invalid_argument("bad --flap entry '" + entry +
                                      "' (want down_sec:up_sec)");
        }
        const double down = parse_number("--flap down", parts[0]);
        const double up = parse_number("--flap up", parts[1]);
        if (down < 0.0) throw std::invalid_argument("--flap times must be >= 0");
        if (up <= down) {
          throw std::invalid_argument("--flap up time must follow its down time");
        }
        if (down <= prev) {
          throw std::invalid_argument("--flap schedule must be strictly increasing");
        }
        prev = up;
        LinkFault d;
        d.at = Time::seconds_f(down);
        d.kind = LinkFault::Kind::kDown;
        LinkFault u;
        u.at = Time::seconds_f(up);
        u.kind = LinkFault::Kind::kUp;
        opts.spec.scenario.net.impairments.faults.push_back(d);
        opts.spec.scenario.net.impairments.faults.push_back(u);
      }
    } else if (key == "--rate-change") {
      need_value();
      parse_fault_schedule(key, value, opts.spec.scenario.net.impairments.faults,
                           [&key](double at, const std::string& v) {
                             const double mbps = parse_number(key + " rate", v);
                             if (mbps <= 0.0) {
                               throw std::invalid_argument(
                                   "--rate-change rate must be positive");
                             }
                             LinkFault f;
                             f.at = Time::seconds_f(at);
                             f.kind = LinkFault::Kind::kRate;
                             f.rate = DataRate::bps_f(mbps * 1e6);
                             return f;
                           });
    } else if (key == "--buffer-change") {
      need_value();
      parse_fault_schedule(key, value, opts.spec.scenario.net.impairments.faults,
                           [&key](double at, const std::string& v) {
                             const int64_t bytes = parse_integer(key + " bytes", v);
                             if (bytes <= 0) {
                               throw std::invalid_argument(
                                   "--buffer-change bytes must be positive");
                             }
                             LinkFault f;
                             f.at = Time::seconds_f(at);
                             f.kind = LinkFault::Kind::kBuffer;
                             f.buffer_bytes = bytes;
                             return f;
                           });
    } else if (key == "--no-sack") {
      opts.spec.tcp.sack_enabled = false;
    } else if (key == "--no-delack") {
      opts.spec.receiver.delayed_ack = false;
    } else if (key == "--no-gro") {
      opts.spec.receiver.gro_enabled = false;
    } else if (key == "--rto-slack") {
      need_value();
      const double us = parse_number(key, value);
      if (us < 0.0) throw std::invalid_argument("--rto-slack must be >= 0");
      opts.spec.tcp.rto_rearm_slack = TimeDelta::seconds_f(us / 1e6);
    } else if (key == "--perf") {
      opts.perf = true;
    } else if (key == "--trace") {
      need_value();
      opts.spec.trace_interval = TimeDelta::seconds_f(parse_number(key, value));
    } else if (key == "--csv") {
      need_value();
      opts.csv_prefix = value;
    } else if (key == "--seeds") {
      need_value();
      for (const auto& s : split(value, ',')) {
        const int64_t v = parse_integer(key, s);
        if (v < 0) throw std::invalid_argument("--seeds entries must be >= 0");
        opts.seeds.push_back(static_cast<uint64_t>(v));
      }
      if (opts.seeds.empty()) {
        throw std::invalid_argument("--seeds needs at least one seed");
      }
    } else if (key == "--jobs") {
      need_value();
      const int64_t v = parse_integer(key, value);
      // 0 is not "hardware concurrency" here: that's the *default* when
      // the flag is absent. An explicit --jobs=0 is a typo'd request for
      // zero workers and must not silently run at full parallelism.
      if (v <= 0) throw std::invalid_argument("--jobs needs a positive integer");
      opts.sweep.jobs = static_cast<int>(v);
    } else if (key == "--cache-dir") {
      need_value();
      opts.sweep.cache_dir = value;
    } else if (key == "--no-cache") {
      opts.sweep.use_cache = false;
    } else if (key == "--cell-timeout") {
      need_value();
      const double sec = parse_number(key, value);
      if (sec <= 0.0) {
        throw std::invalid_argument("--cell-timeout must be positive");
      }
      opts.sweep.cell_timeout = TimeDelta::seconds_f(sec);
      if (opts.sweep.cell_timeout <= TimeDelta::zero()) {
        throw std::invalid_argument("--cell-timeout rounds to zero nanoseconds");
      }
    } else if (key == "--cell-events") {
      need_value();
      const int64_t v = parse_integer(key, value);
      // 0 means "no ceiling" internally; an explicit --cell-events=0 is a
      // typo'd request for a zero budget and must not silently disable it.
      if (v <= 0) throw std::invalid_argument("--cell-events must be positive");
      opts.sweep.max_cell_events = static_cast<uint64_t>(v);
    } else if (key == "--cell-rss") {
      need_value();
      const double mb = parse_number(key, value);
      if (mb <= 0.0) throw std::invalid_argument("--cell-rss must be positive");
      opts.sweep.max_cell_rss_bytes = static_cast<int64_t>(mb * 1e6);
      if (opts.sweep.max_cell_rss_bytes <= 0) {
        throw std::invalid_argument("--cell-rss rounds to zero bytes");
      }
    } else if (key == "--retries") {
      need_value();
      const int64_t v = parse_integer(key, value);
      if (v < 0 || v > 16) {
        throw std::invalid_argument("--retries must be in [0, 16]");
      }
      opts.sweep.retries = static_cast<int>(v);
    } else if (key == "--max-failures") {
      need_value();
      const int64_t v = parse_integer(key, value);
      if (v <= 0) {
        throw std::invalid_argument(
            "--max-failures must be positive (use --fail-fast to abort on the "
            "first failure)");
      }
      opts.sweep.max_failures = static_cast<int>(v);
    } else if (key == "--resume") {
      need_value();
      opts.sweep.resume_dir = value;
    } else if (key == "--quarantine") {
      need_value();
      opts.sweep.quarantine_dir = value;
    } else if (key == "--fail-fast") {
      if (!value.empty()) {
        throw std::invalid_argument("--fail-fast takes no value");
      }
      opts.sweep.fail_fast = true;
    } else {
      throw std::invalid_argument("unknown flag '" + key + "'\n" + cli_usage());
    }
  }

  // Overrides are applied after --setting so order does not matter.
  if (have_rate) {
    opts.spec.scenario.net.bottleneck_rate =
        DataRate::bps_f(parse_number("--rate", rate_value) * 1e6);
  }
  if (have_buffer) {
    opts.spec.scenario.net.buffer_bytes =
        static_cast<int64_t>(parse_number("--buffer", buffer_value));
    if (opts.spec.scenario.net.buffer_bytes <= 0) {
      throw std::invalid_argument("--buffer must be positive");
    }
  }
  if (!opts.spec.workload.classes.empty() &&
      opts.spec.workload.arrivals_per_sec <= 0.0) {
    throw std::invalid_argument(
        "--workload-class requires --workload=<process>:<per_sec>");
  }
  if (opts.spec.workload.arrivals_per_sec > 0.0 &&
      opts.spec.workload.classes.empty()) {
    throw std::invalid_argument(
        "--workload requires at least one --workload-class");
  }
  if (!have_groups && !opts.spec.workload.enabled()) {
    throw std::invalid_argument("--groups or --workload is required\n" +
                                cli_usage());
  }
  if (opts.sweep.fail_fast && opts.sweep.max_failures > 0) {
    throw std::invalid_argument(
        "--fail-fast and --max-failures are mutually exclusive (--fail-fast "
        "already aborts on the first failure)");
  }
  if (opts.sweep.fail_fast && !opts.sweep.resume_dir.empty()) {
    throw std::invalid_argument(
        "--fail-fast aborts without journaling completed cells consistently; "
        "use --max-failures=1 together with --resume instead");
  }
  // Faults from different flags (--flap, --rate-change, --buffer-change)
  // merge into one schedule; validate() then rejects cross-flag ties.
  auto& faults = opts.spec.scenario.net.impairments.faults;
  std::stable_sort(faults.begin(), faults.end(),
                   [](const LinkFault& a, const LinkFault& b) { return a.at < b.at; });
  opts.spec.scenario.net.impairments.validate();
  opts.spec.scenario.net.qdisc.validate();
  opts.spec.workload.validate();  // weight sum, per-class params
  return opts;
}

std::string fleet_cli_usage() {
  return "usage: ccas_fleet --fleet-dir=<dir> --groups=... [options]\n"
         "       ccas_fleet --fleet-dir=<dir> --report-only\n"
         "Runs one fleet worker against a shared job store: independent\n"
         "ccas_fleet processes pointed at the same --fleet-dir divide the\n"
         "grid between them via per-cell leases and converge on results\n"
         "byte-identical to a serial ccas_run of the same flags.\n"
         "  --fleet-dir=<dir>     the shared job store (required)\n"
         "  --lease-ttl=<sec>     per-cell lease TTL (default 30); a worker\n"
         "                        killed mid-cell is reclaimed after this\n"
         "  --heartbeat=<sec>     lease renewal interval (default TTL/3)\n"
         "  --fleet-wait=<sec>    give up (exit 5) after this long without\n"
         "                        any worker journaling progress (0 = wait\n"
         "                        forever, the default)\n"
         "  --worker-id=<id>      stable worker name (default w<pid>)\n"
         "  --report-only         render the report from the store without\n"
         "                        joining as a worker; takes no grid flags\n"
         "All other flags describe the grid and are shared with ccas_run\n"
         "(--groups, --seeds, --setting, budgets, --retries, ...); every\n"
         "worker of one job must pass the same grid flags. --trace, --csv,\n"
         "--resume, --quarantine and --fail-fast do not apply to fleet jobs\n"
         "and are rejected.\n"
         "Exit codes: 0 ok, 1 usage/config/salt mismatch, 2 deterministic\n"
         "            cell failure, 3 budget exceeded, 4 transient failure\n"
         "            after retries, 5 job incomplete (tools/EXIT_CODES.md)\n";
}

FleetCli parse_fleet_cli(const std::vector<std::string>& args) {
  FleetCli cli;
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    auto need_value = [&] {
      if (value.empty()) throw std::invalid_argument(key + " needs a value");
    };
    auto positive_ms = [&]() -> uint64_t {
      need_value();
      const double sec = parse_number(key, value);
      if (sec <= 0.0) throw std::invalid_argument(key + " must be positive");
      const auto ms = static_cast<uint64_t>(sec * 1000.0);
      if (ms == 0) {
        throw std::invalid_argument(key + " rounds to zero milliseconds");
      }
      return ms;
    };

    if (key == "--fleet-dir") {
      need_value();
      cli.fleet.fleet_dir = value;
    } else if (key == "--lease-ttl") {
      cli.fleet.lease_ttl_ms = positive_ms();
    } else if (key == "--heartbeat") {
      cli.fleet.heartbeat_ms = positive_ms();
    } else if (key == "--fleet-wait") {
      need_value();
      const double sec = parse_number(key, value);
      if (sec < 0.0) throw std::invalid_argument("--fleet-wait must be >= 0");
      cli.fleet.wait_ms = static_cast<uint64_t>(sec * 1000.0);
    } else if (key == "--worker-id") {
      need_value();
      for (const char c : value) {
        if (c == '/' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
          throw std::invalid_argument(
              "--worker-id must not contain '/' or whitespace (it names "
              "lease files and journal fields)");
        }
      }
      cli.fleet.worker_id = value;
    } else if (key == "--report-only") {
      if (!value.empty()) {
        throw std::invalid_argument("--report-only takes no value");
      }
      cli.fleet.report_only = true;
    } else {
      rest.push_back(arg);
    }
  }

  if (cli.fleet.fleet_dir.empty()) {
    throw std::invalid_argument("--fleet-dir=<dir> is required\n" +
                                fleet_cli_usage());
  }
  if (cli.fleet.heartbeat_ms != 0 &&
      cli.fleet.heartbeat_ms >= cli.fleet.lease_ttl_ms) {
    throw std::invalid_argument(
        "--heartbeat must be shorter than --lease-ttl (a heartbeat that "
        "fires after expiry cannot keep the lease)");
  }
  if (cli.fleet.report_only) {
    if (!rest.empty()) {
      throw std::invalid_argument(
          "--report-only reads the grid from the store's job.spec and takes "
          "no grid flags (got '" + rest.front() + "')");
    }
    return cli;
  }

  cli.run = parse_cli(rest);
  // A fleet job must be a pure grid of cacheable cells: the store's
  // results and journal ARE the output, so flags that add side outputs or
  // a second manifest cannot mean anything coherent across N processes.
  if (cli.run.spec.trace_interval > TimeDelta::zero()) {
    throw std::invalid_argument(
        "--trace does not apply to fleet jobs: traced cells are not "
        "cacheable, and the shared results store is the fleet's output");
  }
  if (!cli.run.csv_prefix.empty()) {
    throw std::invalid_argument("--csv does not apply to fleet jobs");
  }
  if (!cli.run.sweep.resume_dir.empty()) {
    throw std::invalid_argument(
        "--resume does not apply to fleet jobs: the fleet store is itself "
        "the resumable manifest (point --fleet-dir at it again to resume)");
  }
  if (!cli.run.sweep.quarantine_dir.empty()) {
    throw std::invalid_argument(
        "--quarantine does not apply to fleet jobs: failed cells write "
        ".repro files into <fleet-dir>/quarantine/");
  }
  if (cli.run.sweep.fail_fast) {
    throw std::invalid_argument(
        "--fail-fast does not apply to fleet jobs: one worker cannot abort "
        "the others (use --fleet-wait to bound a stalled job)");
  }
  return cli;
}

namespace {

std::string render_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Decimal text that reproduces `target` exactly after the flag's
// parse-and-truncate transform. %.17g round-trips the double itself, but
// TimeDelta::seconds_f / DataRate::bps_f truncate toward zero, so the
// printed value is nudged by ULPs until the transform lands on the exact
// integer. The transforms are monotonic with sub-integer granularity at
// every realistic magnitude, so a handful of nudges always converges.
template <typename Transform>
std::string render_exact(double start, int64_t target, Transform&& apply) {
  double v = start;
  for (int i = 0; i < 64; ++i) {
    std::string text = render_value(v);
    const int64_t got = apply(std::strtod(text.c_str(), nullptr));
    if (got == target) return text;
    v = std::nextafter(v, got < target ? std::numeric_limits<double>::infinity()
                                       : -std::numeric_limits<double>::infinity());
  }
  return render_value(start);
}

std::string render_flag_seconds(TimeDelta d) {
  if (d.ns() == 0) return "0";
  return render_exact(d.sec(), d.ns(),
                      [](double v) { return TimeDelta::seconds_f(v).ns(); });
}

std::string render_flag_time(Time t) {
  if (t.ns() == 0) return "0";
  return render_exact(t.sec(), t.ns(),
                      [](double v) { return Time::seconds_f(v).ns(); });
}

// Flag value expressed in `per_second`-ths of a second (1e3 = ms, 1e6 = us).
std::string render_flag_scaled(TimeDelta d, double per_second) {
  if (d.ns() == 0) return "0";
  return render_exact(static_cast<double>(d.ns()) / 1e9 * per_second, d.ns(),
                      [per_second](double v) {
                        return TimeDelta::seconds_f(v / per_second).ns();
                      });
}

std::string render_flag_mbps(DataRate r) {
  return render_exact(r.mbps_f(), r.bits_per_sec(), [](double v) {
    return DataRate::bps_f(v * 1e6).bits_per_sec();
  });
}

}  // namespace

SpecCliRendering spec_to_cli(const ExperimentSpec& spec) {
  SpecCliRendering out;
  auto flag = [&out](const std::string& key, const std::string& value) {
    out.args.push_back(key + "=" + value);
  };
  auto note = [&out](std::string text) { out.notes.push_back(std::move(text)); };

  const Scenario& sc = spec.scenario;
  const Scenario preset = Scenario::for_setting(sc.setting);
  flag("--setting", sc.setting == Setting::kEdgeScale ? "edge" : "core");

  std::string groups;
  for (const FlowGroup& g : spec.groups) {
    if (!groups.empty()) groups += ",";
    groups += g.cca + ":" + std::to_string(g.count) + ":" +
              render_flag_scaled(g.rtt, 1e3);
  }
  // Workload-only specs have no groups; "--groups=" would not re-parse.
  if (!groups.empty()) flag("--groups", groups);

  if (sc.net.bottleneck_rate != preset.net.bottleneck_rate) {
    flag("--rate", render_flag_mbps(sc.net.bottleneck_rate));
  }
  if (sc.net.buffer_bytes != preset.net.buffer_bytes) {
    flag("--buffer", std::to_string(sc.net.buffer_bytes));
  }
  flag("--stagger", render_flag_seconds(sc.stagger));
  flag("--warmup", render_flag_seconds(sc.warmup));
  flag("--measure", render_flag_seconds(sc.measure));
  flag("--seed", std::to_string(spec.seed));
  if (sc.net.jitter != preset.net.jitter) {
    flag("--jitter", render_flag_scaled(sc.net.jitter, 1e6));
  }

  const QdiscConfig& qd = sc.net.qdisc;
  const QdiscConfig qd_defaults;
  if (qd.enabled()) {
    flag("--qdisc", qdisc_kind_name(qd.kind));
    if (qd.ecn) out.args.emplace_back("--ecn");
    const bool codel_like =
        qd.kind == QdiscKind::kCoDel || qd.kind == QdiscKind::kFqCoDel;
    if (codel_like && (qd.codel_target != qd_defaults.codel_target ||
                       qd.codel_interval != qd_defaults.codel_interval)) {
      flag("--codel", render_flag_scaled(qd.codel_target, 1e3) + ":" +
                          render_flag_scaled(qd.codel_interval, 1e3));
    }
    if (qd.kind == QdiscKind::kFqCoDel &&
        (qd.fq_flows != qd_defaults.fq_flows ||
         qd.fq_quantum != qd_defaults.fq_quantum)) {
      flag("--fq", std::to_string(qd.fq_flows) + ":" +
                       std::to_string(qd.fq_quantum));
    }
    if (qd.kind == QdiscKind::kPie && (qd.pie_target != qd_defaults.pie_target ||
                                       qd.pie_tupdate != qd_defaults.pie_tupdate)) {
      flag("--pie", render_flag_scaled(qd.pie_target, 1e3) + ":" +
                        render_flag_scaled(qd.pie_tupdate, 1e3));
    }
    if (qd.kind == QdiscKind::kPie &&
        (qd.pie_alpha != qd_defaults.pie_alpha ||
         qd.pie_beta != qd_defaults.pie_beta ||
         qd.pie_mark_ecnth != qd_defaults.pie_mark_ecnth)) {
      note("pie alpha/beta/mark_ecnth overrides have no flag");
    }
    if (qd.kind == QdiscKind::kRed &&
        (qd.red_min_bytes != qd_defaults.red_min_bytes ||
         qd.red_max_bytes != qd_defaults.red_max_bytes ||
         qd.red_max_p != qd_defaults.red_max_p)) {
      std::string red = std::to_string(qd.red_min_bytes) + ":" +
                        std::to_string(qd.red_max_bytes);
      if (qd.red_max_p != qd_defaults.red_max_p) {
        red += ":" + render_value(qd.red_max_p);
      }
      flag("--red", red);
    }
    if (qd.kind == QdiscKind::kRed &&
        (qd.red_wq != qd_defaults.red_wq || qd.red_gentle != qd_defaults.red_gentle)) {
      note("red wq/gentle overrides have no flag");
    }
    if (qd.seed != 0) note("qdisc seed override has no flag");
  }

  const ImpairmentConfig& imp = sc.net.impairments;
  const ImpairmentConfig imp_defaults;
  if (imp.loss > 0.0) flag("--loss", render_value(imp.loss));
  if (imp.ge.p_good_to_bad != 0.0 || imp.ge.p_bad_to_good != 0.0 ||
      imp.ge.loss_bad != 0.0 || imp.ge.loss_good != 0.0) {
    std::string ge = render_value(imp.ge.p_good_to_bad) + ":" +
                     render_value(imp.ge.p_bad_to_good) + ":" +
                     render_value(imp.ge.loss_bad);
    if (imp.ge.loss_good != 0.0) ge += ":" + render_value(imp.ge.loss_good);
    flag("--ge-loss", ge);
  }
  if (imp.duplicate > 0.0) flag("--dup", render_value(imp.duplicate));
  if (imp.reorder > 0.0) {
    flag("--reorder", render_value(imp.reorder) + ":" +
                          render_flag_scaled(imp.reorder_delay, 1e3));
  } else if (imp.reorder_delay != imp_defaults.reorder_delay) {
    note("inert reorder_delay override (reorder probability is zero)");
  }
  if (imp.jitter > TimeDelta::zero()) {
    std::string j = render_flag_scaled(imp.jitter, 1e6);
    if (imp.jitter_dist == ImpairmentConfig::JitterDist::kNormal) j += ":normal";
    flag("--link-jitter", j);
  } else if (imp.jitter_dist != imp_defaults.jitter_dist) {
    note("inert link-jitter distribution override (jitter is zero)");
  }

  // The fault schedule back to the flags that built it: kDown/kUp pair
  // into --flap windows, kRate/kBuffer become their own schedules. Faults
  // are sorted by time, so each per-flag schedule stays strictly
  // increasing and re-parses cleanly.
  std::string flap;
  std::string rate_changes;
  std::string buffer_changes;
  const LinkFault* pending_down = nullptr;
  for (const LinkFault& f : imp.faults) {
    switch (f.kind) {
      case LinkFault::Kind::kDown:
        if (pending_down != nullptr) {
          note("unpaired link-down fault at " +
               render_flag_time(pending_down->at) + "s is not renderable");
        }
        pending_down = &f;
        break;
      case LinkFault::Kind::kUp:
        if (pending_down == nullptr) {
          note("unpaired link-up fault at " + render_flag_time(f.at) +
               "s is not renderable");
          break;
        }
        if (!flap.empty()) flap += ",";
        flap += render_flag_time(pending_down->at) + ":" + render_flag_time(f.at);
        pending_down = nullptr;
        break;
      case LinkFault::Kind::kRate:
        if (!rate_changes.empty()) rate_changes += ",";
        rate_changes += render_flag_time(f.at) + ":" + render_flag_mbps(f.rate);
        break;
      case LinkFault::Kind::kBuffer:
        if (!buffer_changes.empty()) buffer_changes += ",";
        buffer_changes +=
            render_flag_time(f.at) + ":" + std::to_string(f.buffer_bytes);
        break;
    }
  }
  if (pending_down != nullptr) {
    note("unpaired link-down fault at " + render_flag_time(pending_down->at) +
         "s is not renderable");
  }
  if (!flap.empty()) flag("--flap", flap);
  if (!rate_changes.empty()) flag("--rate-change", rate_changes);
  if (!buffer_changes.empty()) flag("--buffer-change", buffer_changes);

  if (!spec.tcp.sack_enabled) out.args.emplace_back("--no-sack");
  if (!spec.receiver.delayed_ack) out.args.emplace_back("--no-delack");
  if (!spec.receiver.gro_enabled) out.args.emplace_back("--no-gro");
  if (spec.tcp.rto_rearm_slack > TimeDelta::zero()) {
    flag("--rto-slack", render_flag_scaled(spec.tcp.rto_rearm_slack, 1e6));
  }
  if (spec.trace_interval > TimeDelta::zero()) {
    flag("--trace", render_flag_seconds(spec.trace_interval));
  }

  const WorkloadSpec& wl = spec.workload;
  if (wl.enabled()) {
    flag("--workload",
         std::string(wl.arrival == ArrivalKind::kPoisson ? "poisson:" : "fixed:") +
             render_value(wl.arrivals_per_sec));
    for (const WorkloadClass& c : wl.classes) {
      std::string size;
      switch (c.size.kind) {
        case SizeDistKind::kPareto:
          size = "pareto/" + render_value(c.size.pareto_alpha) + "/" +
                 std::to_string(c.size.min_segments) + "/" +
                 std::to_string(c.size.max_segments);
          break;
        case SizeDistKind::kLognormal:
          size = "lognormal/" + render_value(c.size.lognormal_mu) + "/" +
                 render_value(c.size.lognormal_sigma) + "/" +
                 std::to_string(c.size.min_segments) + "/" +
                 std::to_string(c.size.max_segments);
          break;
        case SizeDistKind::kFixed:
          size = "fixed/" + std::to_string(c.size.fixed_segments);
          break;
        case SizeDistKind::kEmpirical:
          if (c.size.empirical_path.empty()) {
            note("class '" + c.name +
                 "' uses an in-memory empirical CDF (no flag); workload is "
                 "not fully renderable");
            continue;
          }
          size = "cdf/" + c.size.empirical_path;
          note("class '" + c.name + "' replay re-reads " + c.size.empirical_path +
               " (file content is not pinned by the flag)");
          break;
      }
      std::string app;
      switch (c.app) {
        case AppModel::kBulk:
          app = "bulk";
          break;
        case AppModel::kRequestResponse:
          app = "rr/" + std::to_string(c.app_burst_segments) + "/" +
                render_flag_scaled(c.app_gap, 1e3);
          break;
        case AppModel::kWebObject:
          app = "web/" + std::to_string(c.app_burst_segments) + "/" +
                render_flag_scaled(c.app_gap, 1e3);
          break;
        case AppModel::kVideoChunk:
          app = "video/" + std::to_string(c.app_burst_segments) + "/" +
                render_flag_scaled(c.app_gap, 1e3);
          break;
      }
      flag("--workload-class", c.name + ":" + render_value(c.weight) + ":" +
                                   c.cca + ":" + render_flag_scaled(c.rtt, 1e3) +
                                   ":" + size + ":" + app);
    }
    if (wl.max_concurrent != 0) {
      flag("--workload-max", std::to_string(wl.max_concurrent));
    }
  }

  // Spec fields with no flag are surfaced as notes, so quarantine .repro
  // files are honest about what their replay command cannot reproduce.
  const DumbbellConfig net_defaults;
  if (sc.net.num_pairs != preset.net.num_pairs) {
    note("num_pairs=" + std::to_string(sc.net.num_pairs) + " has no flag");
  }
  if (!sc.net.edge_rate.is_infinite()) {
    note("finite edge_rate (host-NIC ablation) has no flag");
  }
  if (sc.net.edge_buffer_bytes != net_defaults.edge_buffer_bytes) {
    note("edge_buffer_bytes override has no flag");
  }
  if (sc.net.jitter_seed != net_defaults.jitter_seed) {
    note("jitter_seed override has no flag");
  }
  if (imp.seed != 0) note("impairment seed override has no flag");
  if (imp.force_stage) note("force_stage is set (observational; no flag)");

  const TcpSenderConfig tcp_defaults;
  if (spec.tcp.initial_cwnd != tcp_defaults.initial_cwnd) {
    note("tcp.initial_cwnd override has no flag");
  }
  if (spec.tcp.max_window != tcp_defaults.max_window) {
    note("tcp.max_window override has no flag");
  }
  if (spec.tcp.dup_thresh != tcp_defaults.dup_thresh) {
    note("tcp.dup_thresh override has no flag");
  }
  if (spec.tcp.data_segments != tcp_defaults.data_segments) {
    note("tcp.data_segments override has no flag");
  }

  const TcpReceiverConfig recv_defaults;
  if (spec.receiver.delack_segment_threshold !=
      recv_defaults.delack_segment_threshold) {
    note("receiver.delack_segment_threshold override has no flag");
  }
  if (spec.receiver.delack_timeout != recv_defaults.delack_timeout) {
    note("receiver.delack_timeout override has no flag");
  }
  if (spec.receiver.gro_flush_timeout != recv_defaults.gro_flush_timeout) {
    note("receiver.gro_flush_timeout override has no flag");
  }
  if (spec.receiver.gro_max_segments != recv_defaults.gro_max_segments) {
    note("receiver.gro_max_segments override has no flag");
  }

  if (spec.convergence_window != TimeDelta::zero()) {
    note("convergence early-stop is enabled (no flag)");
  }
  if (!spec.record_drop_log) note("record_drop_log=false has no flag");
  if (spec.record_congestion_log) note("record_congestion_log=true has no flag");
  if (!spec.trace_flows.empty()) note("trace_flows subset has no flag");

  return out;
}

std::string spec_to_cli_command(const ExperimentSpec& spec) {
  std::string cmd = "ccas_run";
  for (const std::string& arg : spec_to_cli(spec).args) cmd += " " + arg;
  return cmd;
}

}  // namespace ccas
