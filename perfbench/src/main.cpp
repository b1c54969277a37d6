// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|small] [--trace-out PATH]
//
// --trace 0 measures the end-to-end figures with no spans: rounds of one
// zero-horizon setup call and one full pass for S seconds (at least two
// rounds; medians reported), then the correctness gate. --trace 1 runs one
// untraced setup call and pass for the counts, then the traced per-layer
// measurements, and writes the spans to PATH. Both print human-readable
// lines and end with one JSON line for perfbench/run.py, which attaches
// units and prints the result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "parallel/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scale full|small] [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "full" && value != "small") usage("bad --scale " + value);
      o.scale = value == "small" ? Scale::kSmall : Scale::kFull;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Refuse to measure a build whose numbers would mislead: sanitizers or no
/// optimisation.
const char* unfit_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "unoptimised build";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) return "sanitizer build";
  return nullptr;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (const char* why = unfit_build()) {
    std::cerr << "perfbench: refusing to report from a " << why << "\n";
    return 3;
  }
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed, opt.scale);
  if (!w) usage("unknown workload " + opt.workload);

  const std::size_t nproc = available_cpus();
  const std::size_t threads = std::min<std::size_t>(4, nproc);
  std::unique_ptr<p2panon::parallel::ThreadPool> pool;
  if (w->uses_pool() || opt.trace) pool = std::make_unique<p2panon::parallel::ThreadPool>(threads);
  p2panon::parallel::ThreadPool* run_pool = w->uses_pool() ? pool.get() : nullptr;

  Checks checks;
  Metrics metrics;
  std::vector<std::uint64_t> fingerprints;
  std::size_t passes = 0;
  std::size_t setups = 0;

  if (!opt.trace) {
    // Rounds of one zero-horizon setup call and one full pass, for the
    // measuring window and at least two rounds (a second pass of the same
    // seed is compared with the first). Interleaving puts both figures of a
    // round under the same machine conditions, so the run phase of a round
    // is its pass minus its setup.
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> run_s;
    const Clock::time_point start = Clock::now();
    while (wall_s.size() < 2 || (seconds_since(start) < opt.seconds && wall_s.size() < 200)) {
      Clock::time_point t0 = Clock::now();
      w->setup_pass(run_pool);
      setup_s.push_back(seconds_since(t0));
      t0 = Clock::now();
      fingerprints.push_back(w->pass(run_pool));
      wall_s.push_back(seconds_since(t0));
      run_s.push_back(wall_s.back() - setup_s.back());
    }
    setups = setup_s.size();
    passes = wall_s.size();
    const auto print_samples = [](const char* what, const std::vector<double>& v) {
      std::cout << what << " samples (s):";
      for (const double x : v) std::cout << " " << x;
      std::cout << "\n";
    };
    print_samples("setup", setup_s);
    print_samples("pass", wall_s);
    const double run = median(run_s);
    metrics.emplace_back("setup_s", median(setup_s));
    metrics.emplace_back("wall_s", median(wall_s));
    metrics.emplace_back("replicates_per_s",
                         run > 0.0 ? static_cast<double>(w->replicates()) / run : 0.0);
  } else {
    Tracer tracer;
    const int root = tracer.begin("harness.trace_run");
    double setup = 0.0;
    double wall = 0.0;
    {
      ScopedSpan s(tracer, "harness.setup_pass", root);
      const Clock::time_point t0 = Clock::now();
      w->setup_pass(run_pool);
      setup = seconds_since(t0);
    }
    {
      ScopedSpan s(tracer, "harness.pass", root);
      const Clock::time_point t0 = Clock::now();
      fingerprints.push_back(w->pass(run_pool));
      wall = seconds_since(t0);
    }
    setups = passes = 1;
    w->counts(metrics);
    w->trace_layers(tracer, root, *pool, wall, setup, metrics, checks);
    tracer.end(root);

    // Layer self time: each span's duration minus what its children cover,
    // summed by the layer its name starts with.
    const std::vector<SpanRecord> spans = tracer.spans();
    const std::vector<std::int64_t> self = Tracer::self_times(spans);
    std::map<std::string, double> layer_ms;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      layer_ms[spans[i].name.substr(0, spans[i].name.find('.'))] += 1e-6 * static_cast<double>(self[i]);
    }
    std::cout << "layer self time (traced run):\n";
    for (const auto& [layer, ms] : layer_ms) std::cout << "  " << layer << ": " << ms << " ms\n";
    if (!opt.trace_out.empty() && !tracer.write_json(opt.trace_out)) {
      checks.expect(false, "could not write the span file " + opt.trace_out);
    }
  }

  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    checks.expect(fingerprints[i] == fingerprints[0],
                  std::string(w->name()) + ": pass " + std::to_string(i) +
                      " of the same seed gave a different result fingerprint");
  }
  w->check(checks);
  if (!opt.trace) w->check_pool_invariance(checks, run_pool);
  if (!opt.trace) w->counts(metrics);
  metrics.emplace_back("check_failures", static_cast<double>(checks.failures.size()));
  metrics.emplace_back("peak_rss_mib", peak_rss_mib());

  for (const std::string& f : checks.failures) std::cout << "CHECK FAILED: " << f << "\n";

  std::ostringstream line;
  line.precision(17);
  line << "{\"workload\": " << json_string(w->name()) << ", \"seed\": " << opt.seed
       << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"fingerprint\": \""
       << hex(fingerprints.empty() ? 0 : fingerprints[0]) << "\", \"attempted\": "
       << checks.attempted << ", \"failed\": " << checks.failures.size()
       << ", \"passes\": " << passes << ", \"setups\": " << setups << ", \"replicates\": "
       << w->replicates() << ", \"env\": {\"nproc\": " << nproc << ", \"threads\": " << threads
       << ", \"compiler\": " << json_string("g++ " __VERSION__)
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS) << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << json_string(metrics[i].first) << ": " << metrics[i].second;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return checks.failures.empty() ? 0 : 1;
}
