// p2panon_sim — command-line driver for the full experiment harness.
//
// Run any paper-style scenario without writing code:
//
//   ./p2panon_sim --malicious 0.3 --strategy utility1 --tau 4 --replicates 16
//   ./p2panon_sim --nodes 80 --degree 8 --strategy spne --termination ttl --ttl 4
//   ./p2panon_sim --zipf 1.0 --csv out.csv
//
// Prints the headline metrics (forwarder set, path quality, payoffs with
// 95% CIs, latency, conservation check) and optionally appends a CSV row.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "harness/replicate.hpp"
#include "harness/table.hpp"
#include "metrics/stats.hpp"

namespace {

using namespace p2panon;

void usage(const char* prog) {
  std::cout
      << "usage: " << prog << " [options]\n\n"
      << "overlay:\n"
      << "  --nodes N          overlay size (default 40, the paper's N)\n"
      << "  --degree D         neighbour-set size d (default 5)\n"
      << "  --malicious F      adversary fraction f in [0,1] (default 0)\n"
      << "  --always-online    malicious nodes never leave (availability attack)\n"
      << "  --session-median M median session time, minutes (default 60)\n"
      << "workload:\n"
      << "  --pairs N          (I,R) pairs (default 100)\n"
      << "  --connections K    connections per pair (default 20)\n"
      << "  --zipf S           responder popularity skew (default 0 = uniform)\n"
      << "contract & routing:\n"
      << "  --strategy S       random | utility1 | utility2 | spne (default utility1)\n"
      << "  --tau T            P_r = tau * P_f (default 2; paper sweeps 0.5..4)\n"
      << "  --w-selectivity W  edge-quality history weight w_s in [0, 1] (default 0.5;\n"
      << "                     w_a = 1 - W)\n"
      << "  --termination T    crowds | ttl (default crowds)\n"
      << "  --p-forward P      Crowds forwarding probability (default 0.75)\n"
      << "  --ttl H            hop bound for ttl termination (default 4)\n"
      << "  --drop P           malicious payload-drop probability (default 0)\n"
      << "run control:\n"
      << "  --seed S           base seed (default 1)\n"
      << "  --replicates R     Monte-Carlo replicates (default 8)\n"
      << "  --threads T        worker threads (default: hardware; at most 4 per\n"
      << "                     hardware thread)\n"
      << "  --csv FILE         append one CSV result row to FILE\n"
      << "  --help             this text\n";
}

/// Most worker threads --threads accepts: a small multiple of the hardware
/// threads, so a mistyped count cannot ask for thousands of OS threads.
std::size_t max_threads() {
  return 4 * static_cast<std::size_t>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Tiny argv reader: value-taking options pull the next token.
struct Args {
  int argc;
  char** argv;
  int i = 1;
  bool ok = true;

  const char* next_value(const char* flag) {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << '\n';
      ok = false;
      return "0";
    }
    return argv[++i];
  }
  void refuse(const char* flag, const char* value, const char* want) {
    std::cerr << "invalid value for " << flag << ": '" << value << "' (want " << want << ")\n";
    ok = false;
  }
  /// A number with no trailing characters.
  double next_double(const char* flag) {
    const char* v = next_value(flag);
    char* end = nullptr;
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0') refuse(flag, v, "a number");
    return x;
  }
  /// A count: decimal digits only (no sign), within T's range.
  template <class T>
  T next_count(const char* flag) {
    const char* v = next_value(flag);
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(*v)) == 0 || *end != '\0' || errno == ERANGE ||
        n > std::numeric_limits<T>::max()) {
      refuse(flag, v, "a non-negative integer");
      return 0;
    }
    return static_cast<T>(n);
  }
};

}  // namespace

int main(int argc, char** argv) {
  harness::ScenarioConfig cfg = harness::paper_default_config(1);
  std::size_t replicates = 8;
  std::size_t threads = 0;
  std::string csv_path;

  Args args{argc, argv};
  for (; args.i < argc && args.ok; ++args.i) {
    const char* a = argv[args.i];
    if (std::strcmp(a, "--help") == 0) {
      usage(argv[0]);
      return 0;
    } else if (std::strcmp(a, "--nodes") == 0) {
      cfg.overlay.node_count = args.next_count<std::size_t>(a);
    } else if (std::strcmp(a, "--degree") == 0) {
      cfg.overlay.degree = args.next_count<std::size_t>(a);
    } else if (std::strcmp(a, "--malicious") == 0) {
      cfg.overlay.malicious_fraction = args.next_double(a);
    } else if (std::strcmp(a, "--always-online") == 0) {
      cfg.overlay.malicious_always_online = true;
    } else if (std::strcmp(a, "--session-median") == 0) {
      cfg.overlay.churn.session_median = sim::minutes(args.next_double(a));
    } else if (std::strcmp(a, "--pairs") == 0) {
      cfg.pair_count = args.next_count<std::size_t>(a);
    } else if (std::strcmp(a, "--connections") == 0) {
      cfg.connections_per_pair = args.next_count<std::uint32_t>(a);
    } else if (std::strcmp(a, "--zipf") == 0) {
      cfg.responder_zipf = args.next_double(a);
    } else if (std::strcmp(a, "--strategy") == 0) {
      const std::string s = args.next_value(a);
      if (s == "random") cfg.good_strategy = core::StrategyKind::kRandom;
      else if (s == "utility1") cfg.good_strategy = core::StrategyKind::kUtilityModelI;
      else if (s == "utility2") cfg.good_strategy = core::StrategyKind::kUtilityModelII;
      else if (s == "spne") cfg.good_strategy = core::StrategyKind::kSpne;
      else {
        std::cerr << "unknown strategy: " << s << '\n';
        return 2;
      }
    } else if (std::strcmp(a, "--tau") == 0) {
      cfg.tau = args.next_double(a);
    } else if (std::strcmp(a, "--w-selectivity") == 0) {
      cfg.weights.w_selectivity = args.next_double(a);
      cfg.weights.w_availability = 1.0 - cfg.weights.w_selectivity;
    } else if (std::strcmp(a, "--termination") == 0) {
      const std::string s = args.next_value(a);
      if (s == "crowds") cfg.termination = core::TerminationPolicy::kCrowds;
      else if (s == "ttl") cfg.termination = core::TerminationPolicy::kHopCount;
      else {
        std::cerr << "unknown termination: " << s << '\n';
        return 2;
      }
    } else if (std::strcmp(a, "--p-forward") == 0) {
      cfg.p_forward = args.next_double(a);
    } else if (std::strcmp(a, "--ttl") == 0) {
      cfg.ttl_hops = args.next_count<std::uint32_t>(a);
    } else if (std::strcmp(a, "--drop") == 0) {
      cfg.adversary.drop_probability = args.next_double(a);
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg.seed = args.next_count<std::uint64_t>(a);
    } else if (std::strcmp(a, "--replicates") == 0) {
      replicates = args.next_count<std::size_t>(a);
    } else if (std::strcmp(a, "--threads") == 0) {
      threads = args.next_count<std::size_t>(a);
      if (args.ok && threads > max_threads()) {
        const std::string want = "at most " + std::to_string(max_threads());
        args.refuse(a, argv[args.i], want.c_str());
      }
    } else if (std::strcmp(a, "--csv") == 0) {
      csv_path = args.next_value(a);
    } else {
      std::cerr << "unknown option: " << a << " (try --help)\n";
      return 2;
    }
  }
  if (!args.ok) return 2;
  if (const std::string err = cfg.validate(); !err.empty()) {
    std::cerr << err << '\n';
    return 2;
  }
  if (replicates == 0) {
    std::cerr << "--replicates must be at least 1\n";
    return 2;
  }

  std::cout << "p2panon scenario: N=" << cfg.overlay.node_count << " d=" << cfg.overlay.degree
            << " f=" << cfg.overlay.malicious_fraction << " strategy="
            << core::strategy_name(cfg.good_strategy) << " tau=" << cfg.tau
            << " pairs=" << cfg.pair_count << " k=" << cfg.connections_per_pair
            << " replicates=" << replicates << " seed=" << cfg.seed << "\n\n";

  parallel::ThreadPool pool(threads);
  const harness::ReplicatedResult r = harness::run_replicated(cfg, replicates, &pool);

  const auto member_ci = r.member_payoff_ci();
  const auto set_ci = r.forwarder_set_ci();

  harness::TextTable table({"metric", "value"});
  table.add_row({"forwarder set ||pi||", harness::fmt_ci(set_ci.mean, set_ci.half_width)});
  table.add_row({"avg path length L", harness::fmt(r.avg_path_length.mean())});
  table.add_row({"path quality Q(pi)", harness::fmt(r.path_quality.mean(), 3)});
  table.add_row({"member payoff (good)", harness::fmt_ci(member_ci.mean, member_ci.half_width)});
  table.add_row({"node payoff total (good)", harness::fmt(r.good_payoff.mean())});
  table.add_row({"routing efficiency", harness::fmt(r.routing_efficiency.mean())});
  table.add_row({"initiator utility U_I", harness::fmt(r.initiator_utility.mean())});
  table.add_row({"initiator spend", harness::fmt(r.initiator_spend.mean())});
  table.add_row({"connection latency (s)", harness::fmt(r.connection_latency.mean(), 3)});
  table.add_row({"payoff Gini (nodes)", harness::fmt(metrics::gini(r.pooled_good_payoffs), 3)});
  table.add_row({"drop reformations", std::to_string(r.total_reformations)});
  table.add_row({"payments conserved", r.all_payments_conserved ? "yes" : "NO"});
  table.print(std::cout);

  if (!csv_path.empty()) {
    const bool fresh = !std::ifstream(csv_path).good();
    std::ofstream out(csv_path, std::ios::app);
    if (!out) {
      std::cerr << "cannot open " << csv_path << '\n';
      return 1;
    }
    if (fresh) {
      out << "nodes,degree,f,strategy,tau,pairs,k,seed,replicates,"
             "set_size,path_length,quality,member_payoff,member_ci,latency,conserved\n";
    }
    out << cfg.overlay.node_count << ',' << cfg.overlay.degree << ','
        << cfg.overlay.malicious_fraction << ',' << core::strategy_name(cfg.good_strategy)
        << ',' << cfg.tau << ',' << cfg.pair_count << ',' << cfg.connections_per_pair << ','
        << cfg.seed << ',' << replicates << ',' << set_ci.mean << ','
        << r.avg_path_length.mean() << ',' << r.path_quality.mean() << ',' << member_ci.mean
        << ',' << member_ci.half_width << ',' << r.connection_latency.mean() << ','
        << (r.all_payments_conserved ? 1 : 0) << '\n';
    std::cout << "\nappended CSV row to " << csv_path << '\n';
  }
  return r.all_payments_conserved ? 0 : 1;
}
