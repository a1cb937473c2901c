// perfbench: one workload, one process, one thread of control.
//
// Every workload is a fixed graph instance, relabeled from the run seed
// into G, plus a churn stream on G. A run first sets up (generates the
// inputs, seeds a DynamicLister, computes the oracle), then measures as a
// closed loop: each call starts only after the previous one returned, and
// the untraced run repeats the set-up timing at the end. The timed phase
// has two halves, which take turns:
//   * static:  repeated `list_kp_collect` on G;
//   * dynamic: `DynamicLister::apply` over the stream, forward, then the
//     inverse batches backward to G again, and so on.
// Every call is checked outside its timed interval, against the oracle
// (clique count + CliqueSet fingerprint) and against the exact simulated
// cost. `--trace 1` instead times calls into each layer's public functions
// under the benchmark's own spans (see README.md for the metric table).
//
// The last line of stdout is one JSON object; every line before it is
// "name value unit [samples=N]" for humans. Exit code 0 only when every
// check passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parallel_for.h"
#include "common/telemetry.h"
#include "core/arb_list.h"
#include "core/kp_lister.h"
#include "dynamic/dynamic_lister.h"
#include "enumeration/clique_enumeration.h"
#include "enumeration/delta_kernels.h"
#include "expander/decomposition.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "graph/workloads.h"

namespace {

using namespace dcl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the middle two for even counts).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Exact simulated cost of one list_kp call.
struct SimCost {
  double rounds = 0.0;
  std::uint64_t messages = 0;
  double exchange = 0.0;
  double routing = 0.0;
  double analytic = 0.0;
};

struct Workload {
  std::string name;
  /// Seeds the graph family generator: the instance is the same in every
  /// run, so clique counts, table sizes and the simulated cost do not jump
  /// between run seeds (see README.md, "Seeds").
  std::uint64_t instance_seed = 0;
  /// Run seed reserved for checking a claim on an input the change was not
  /// tuned on.
  std::uint64_t heldout_seed = 0;
  int p = 4;
  int threads = 1;
  KpConfig cfg;
  int batches = 1000;  ///< forward batches of the churn stream
  int churn = 24;      ///< edges erased and inserted per batch
  std::function<Graph(Rng&)> instance;
  /// Recorded list_kp cost at this run seed (--expect-cost); a difference
  /// from it is reported by name.
  std::optional<SimCost> expected;
};

std::uint64_t pair_code(const Edge& e) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) << 32) |
         static_cast<std::uint32_t>(e.v);
}

/// `g` with its vertices renamed by a uniformly random permutation.
Graph relabel(const Graph& g, Rng& rng) {
  std::vector<NodeId> name(static_cast<std::size_t>(g.node_count()));
  for (std::size_t v = 0; v < name.size(); ++v) {
    name[v] = static_cast<NodeId>(v);
  }
  rng.shuffle(name);
  std::vector<Edge> edges;
  edges.reserve(g.edges().size());
  for (const Edge& e : g.edges()) {
    edges.push_back(make_edge(name[static_cast<std::size_t>(e.u)],
                              name[static_cast<std::size_t>(e.v)]));
  }
  return Graph::from_edges(g.node_count(), std::move(edges));
}

/// Churn on a given graph, with the semantics of `churn_stream`: each batch
/// erases `churn` uniformly chosen live edges and inserts `churn` fresh
/// absent pairs, so the edge count stays constant and no update is a no-op.
UpdateStream churn_on(const Graph& g, int batches, int churn, Rng& rng) {
  UpdateStream s;
  s.n = g.node_count();
  s.initial.assign(g.edges().begin(), g.edges().end());
  std::vector<Edge> live = s.initial;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < live.size(); ++i) index[pair_code(live[i])] = i;
  const auto n = static_cast<std::uint64_t>(s.n);
  for (int b = 0; b < batches; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < churn && !live.empty(); ++i) {
      const std::size_t at = rng.next_below(live.size());
      const Edge e = live[at];
      batch.erase.push_back(e);
      index[pair_code(live.back())] = at;
      live[at] = live.back();
      live.pop_back();
      index.erase(pair_code(e));
    }
    for (int i = 0; i < churn; ++i) {
      Edge e;
      do {
        const auto u = static_cast<NodeId>(rng.next_below(n));
        const auto v = static_cast<NodeId>(rng.next_below(n));
        e = make_edge(u, v);
      } while (e.u == e.v || index.contains(pair_code(e)));
      index[pair_code(e)] = live.size();
      live.push_back(e);
      batch.insert.push_back(e);
    }
    s.batches.push_back(std::move(batch));
  }
  return s;
}

/// The workload definitions; the comment above each is why it is here.
Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "dense_k4") {
    // Stresses the output plane: dedup of ~1.74 reports per unique K4 is
    // most of a list_kp call; one cluster, inline step-5 tail, and its churn
    // is bound by CliqueSet insert/erase.
    w.instance_seed = 21;
    w.heldout_seed = 1021;
    w.p = 4;
    w.threads = 1;
    w.churn = 1;
    const NodeId n = smoke ? 40 : 120;
    const EdgeId m = smoke ? 600 : 6000;
    w.instance = [n, m](Rng& rng) { return erdos_renyi_gnm(n, m, rng); };
  } else if (name == "ring_k6") {
    // Stresses the decomposition and the multi-cluster sharded tail: 64
    // clusters, 2 ARB-LIST calls, 72-bit keys, no duplicate reports.
    w.instance_seed = 13;
    w.heldout_seed = 1013;
    w.p = 6;
    w.threads = 2;
    w.cfg.seed = 7;
    w.cfg.stop_scale = 0.03;
    const NodeId n = smoke ? 480 : 3840;
    const int blocks = smoke ? 8 : 64;
    w.instance = [n, blocks](Rng& rng) {
      return ring_of_cliques_workload(n, rng, blocks, 0.5);
    };
  } else if (name == "dyn_churn") {
    // Covers src/dynamic: small batches on a cache-resident clique set,
    // where delta enumeration is about 40% of apply. The instance is
    // churn_stream's base graph, G(n, m) from the same Rng.
    w.instance_seed = 5;
    w.heldout_seed = 1005;
    w.p = 4;
    w.threads = 1;
    const NodeId n = smoke ? 96 : 512;
    const EdgeId m = smoke ? 1200 : 20000;
    w.instance = [n, m](Rng& rng) { return erdos_renyi_gnm(n, m, rng); };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.cfg.p = w.p;
  if (smoke) w.batches = 60;
  return w;
}

// ---------------------------------------------------------------------------
// Inputs and oracle
// ---------------------------------------------------------------------------

struct Inputs {
  Graph g;
  UpdateStream stream;
  std::vector<UpdateBatch> inverse;  ///< inverse[i] undoes stream.batches[i]
};

/// The workload's instance, relabeled and churned from the run seed.
Inputs generate(const Workload& w, std::uint64_t seed) {
  Rng instance_rng(w.instance_seed);
  const Graph base = w.instance(instance_rng);
  Rng rng(seed);
  Inputs in;
  in.g = relabel(base, rng);
  in.stream = churn_on(in.g, w.batches, w.churn, rng);
  for (const UpdateBatch& b : in.stream.batches) {
    in.inverse.push_back(UpdateBatch{b.erase, b.insert});
  }
  return in;
}

struct Expect {
  std::uint64_t count = 0;
  std::uint64_t fingerprint = 0;
};

/// Oracle of the graph after the first `k` stream batches.
Expect oracle_after(const Inputs& in, int k, int p) {
  std::unordered_set<std::uint64_t> live;
  for (const Edge& e : in.stream.initial) live.insert(pair_code(e));
  for (int i = 0; i < k; ++i) {
    const UpdateBatch& b = in.stream.batches[static_cast<std::size_t>(i)];
    for (const Edge& e : b.erase) live.erase(pair_code(e));
    for (const Edge& e : b.insert) live.insert(pair_code(e));
  }
  std::vector<Edge> edges;
  for (const std::uint64_t c : live) {
    edges.push_back({static_cast<NodeId>(c >> 32),
                     static_cast<NodeId>(c & 0xffffffffULL)});
  }
  const Graph g = Graph::from_edges(in.stream.n, std::move(edges));
  const CliqueSet set(list_k_cliques(g, p));
  return {set.size(), set.fingerprint()};
}

SimCost sim_cost(const KpListResult& r) {
  return {r.ledger.total_rounds(), r.ledger.total_messages(),
          r.ledger.rounds_of_kind(CostKind::exchange),
          r.ledger.rounds_of_kind(CostKind::routing),
          r.ledger.rounds_of_kind(CostKind::analytic)};
}

// ---------------------------------------------------------------------------
// Checks and reporting
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("FAILED %s\n", what.c_str());
    }
  }
};

/// Compares a simulated cost field by field, prints a DRIFT line naming
/// every field that differs, and returns whether all of them match.
bool same_cost(const SimCost& want, const SimCost& got,
               const std::string& context) {
  bool ok = true;
  const auto field = [&](const char* name, double a, double b) {
    if (a != b) {
      ok = false;
      std::printf("DRIFT %s (%s): expected %.17g got %.17g\n", name,
                  context.c_str(), a, b);
    }
  };
  field("sim_rounds", want.rounds, got.rounds);
  field("sim_messages", static_cast<double>(want.messages),
        static_cast<double>(got.messages));
  field("congest.rounds_exchange", want.exchange, got.exchange);
  field("congest.rounds_routing", want.routing, got.routing);
  field("congest.rounds_analytic", want.analytic, got.analytic);
  return ok;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// The exact simulated cost, in the form --expect-cost reads.
void print_cost(const std::optional<SimCost>& c) {
  if (!c) return;
  std::printf("sim_cost %.17g,%llu,%.17g,%.17g,%.17g\n", c->rounds,
              static_cast<unsigned long long>(c->messages), c->exchange,
              c->routing, c->analytic);
}

void emit(const std::vector<Metric>& metrics, const Checks& checks) {
  const double failed_frac =
      checks.attempted == 0 ? 0.0
                            : static_cast<double>(checks.failed) /
                                  static_cast<double>(checks.attempted);
  std::printf("failed_frac %.6g ratio checks=%llu\n", failed_frac,
              static_cast<unsigned long long>(checks.attempted));
  for (const Metric& m : metrics) {
    std::printf("%s %.9g %s samples=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Resets the kernel's RSS high-water mark to the current RSS. Returns
/// false where /proc/self/clear_refs is unavailable.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM in MB, or nullopt when /proc/self/status has none.
std::optional<double> peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Set-up shared by both modes
// ---------------------------------------------------------------------------

struct Setup {
  Inputs in;
  std::unique_ptr<DynamicLister> lister;
  std::vector<double> gen_s;   ///< input generation, per repetition
  std::vector<double> seed_s;  ///< DynamicLister seed build, per repetition
  Expect initial;                      ///< oracle of G
  std::map<int, Expect> checkpoints;   ///< forward position -> oracle
  /// The cost every list_kp call must reproduce: the first call's.
  std::optional<SimCost> reference;
  /// The cost recorded for this seed in expected_costs.json, if any.
  std::optional<SimCost> recorded;
};

/// Every list_kp call must reproduce the first call's cost bit for bit; a
/// difference fails the run. A difference of the first call from the
/// recorded cost is only reported: a change may alter the simulated cost on
/// purpose, and the sim_rounds and sim_messages bounds judge it.
void check_sim_cost(Setup& s, const SimCost& got, const std::string& context,
                    Checks& checks) {
  if (s.reference) {
    checks.record(same_cost(*s.reference, got, context),
                  "simulated cost " + context);
    return;
  }
  s.reference = got;
  if (s.recorded) (void)same_cost(*s.recorded, got, "recorded cost");
}

/// One window of set-up repetitions: generates the inputs and seeds the
/// lister at least 3 times and for at least 2 s (at most 100 times),
/// keeping the last inputs and lister. The untraced run takes one window
/// before its timed phase and one after, so that setup_s, the median
/// generation plus the median seed build, samples the host at both ends of
/// the run and not only in its first second.
void set_up_window(const Workload& w, std::uint64_t seed, Setup& s,
                   Checks& checks) {
  const auto t_all = Clock::now();
  for (int rep = 0;
       rep < 3 || (seconds_since(t_all) < 2.0 && rep < 100); ++rep) {
    const auto t0 = Clock::now();
    Inputs in = generate(w, seed);
    s.gen_s.push_back(seconds_since(t0));
    s.lister.reset();
    const auto t1 = Clock::now();
    s.lister = std::make_unique<DynamicLister>(in.g, w.p);
    s.seed_s.push_back(seconds_since(t1));
    if (!s.in.g.edges().empty()) {
      checks.record(in.stream.initial == s.in.stream.initial,
                    "input generation is deterministic");
    }
    s.in = std::move(in);
  }
}

/// Sets up (one window of repetitions), then computes the oracle.
Setup set_up(const Workload& w, std::uint64_t seed, bool corrupt,
             Checks& checks) {
  Setup s;
  set_up_window(w, seed, s, checks);

  // Oracle (excluded from setup_s). The seeded lister holds exactly
  // list_k_cliques(G) in a CliqueSet, so its count and fingerprint are the
  // oracle of G; the checkpoints are recomputed from scratch.
  s.initial = {s.lister->clique_count(), s.lister->fingerprint()};
  if (corrupt) s.initial.fingerprint ^= 1;
  const int b = w.batches;
  for (const int k : {b / 2, b}) s.checkpoints[k] = oracle_after(s.in, k, w.p);

  s.recorded = w.expected;
  // The simulated cost must not depend on the shard count: take one call at
  // 1 thread, which all later calls at the workload's count must match.
  if (w.threads != 1) {
    set_shard_threads(1);
    check_sim_cost(s, sim_cost(list_kp(s.in.g, w.cfg)), "list_kp at 1 thread",
                   checks);
    set_shard_threads(w.threads);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

/// Timings of the dynamic half: one sample per applied batch.
struct DynamicLoop {
  std::vector<double> batch_s;
  std::uint64_t updates = 0;
  double apply_s = 0.0;
};

void check_lister(Checks& checks, const DynamicLister& l, const Expect& want,
                  const std::string& where) {
  checks.record(
      l.clique_count() == want.count && l.fingerprint() == want.fingerprint,
      "dynamic checkpoint " + where);
}

/// Applies one batch, timing only the apply call.
void timed_apply(DynamicLister& l, const UpdateBatch& b, DynamicLoop& loop,
                 Checks& checks) {
  const auto t0 = Clock::now();
  l.apply(b);
  const double dt = seconds_since(t0);
  loop.batch_s.push_back(dt);
  loop.apply_s += dt;
  const DynamicBatchStats& st = l.last_stats();
  loop.updates +=
      static_cast<std::uint64_t>(st.inserted_edges + st.erased_edges);
  if (st.skipped_inserts != 0 || st.skipped_erases != 0) {
    checks.record(false, "stream batch applied without no-ops");
  }
}

int run_untraced(const Workload& w, Setup& s, std::uint64_t seed,
                 double seconds, Checks& checks) {
  const bool rss_reset = reset_peak_rss();
  const auto t_phase = Clock::now();
  const NodeId n = s.in.g.node_count();
  const int b = w.batches;

  // The two halves take turns, so that both sample the host over the whole
  // run: a list_kp call whenever the static half has had less time than the
  // dynamic one, else ~0.2 s of batches. The run ends once the budget is
  // spent, with at least 3 calls, one forward pass over the stream (which
  // reaches every checkpoint) and kMinBatches batches. On dense_k4, whose
  // batches take ~6 ms each and vary little, a host stall of a few hundred
  // milliseconds otherwise covers more than 1% of a run's batches and sets
  // batch_us_p99; 3000 batches put 30 beyond p99.
  constexpr std::size_t kMinBatches = 3000;
  std::vector<double> list_s;
  SimCost cost;
  double static_s = 0.0;
  double dynamic_s = 0.0;
  DynamicLoop loop;
  DynamicLister& l = *s.lister;
  int pos = 0;  // batches of the forward stream currently applied
  bool forward = true;
  bool passed = false;
  for (;;) {
    const bool over = seconds_since(t_phase) >= seconds;
    const bool need_static = list_s.size() < 3;
    const bool need_dynamic = !passed || loop.batch_s.size() < kMinBatches;
    if (over && !need_static && !need_dynamic) break;
    const bool static_turn =
        over ? need_static : static_s <= dynamic_s;
    const auto t_turn = Clock::now();
    if (static_turn) {
      ListingOutput out(n);
      const auto t0 = Clock::now();
      const KpListResult r = list_kp_collect(s.in.g, w.cfg, out);
      list_s.push_back(seconds_since(t0));
      const std::string call = "list_kp call " + std::to_string(list_s.size());
      checks.record(out.unique_count() == s.initial.count &&
                        out.cliques().fingerprint() == s.initial.fingerprint,
                    call);
      cost = sim_cost(r);
      check_sim_cost(s, cost, call, checks);
      static_s += seconds_since(t_turn);
      continue;
    }
    // Walk forward over the stream, then back over the inverse batches to
    // G, and so on.
    while (seconds_since(t_turn) < 0.2) {
      const auto at = static_cast<std::size_t>(forward ? pos : pos - 1);
      timed_apply(l, forward ? s.in.stream.batches[at] : s.in.inverse[at], loop,
                  checks);
      pos += forward ? 1 : -1;
      if (pos == 0) {
        check_lister(checks, l, s.initial, "0");
        forward = true;
      } else if (const auto it = s.checkpoints.find(pos);
                 it != s.checkpoints.end()) {
        check_lister(checks, l, it->second, std::to_string(pos));
      }
      if (pos == b) {
        forward = false;
        passed = true;
      }
    }
    dynamic_s += seconds_since(t_turn);
  }
  const std::optional<double> hwm = peak_rss_mb();
  const bool rss_phase_only = rss_reset && hwm.has_value();
  double rss = 0.0;
  if (rss_phase_only) {
    rss = *hwm;
  } else {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rss = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::printf("note: peak_rss_mb from ru_maxrss, includes setup\n");
  }
  set_up_window(w, seed, s, checks);

  std::vector<double> batch_us;
  for (const double t : loop.batch_s) batch_us.push_back(t * 1e6);
  print_cost(s.reference);
  emit({{"setup_s", median(s.gen_s) + median(s.seed_s), "s", s.gen_s.size()},
        {"list_s_p50", median(list_s), "s", list_s.size()},
        {"batch_us_p50", median(batch_us), "us", batch_us.size()},
        {"batch_us_p99", percentile(batch_us, 0.99), "us", batch_us.size()},
        {"updates_per_s", static_cast<double>(loop.updates) / loop.apply_s,
         "1/s", batch_us.size()},
        {"peak_rss_mb", rss, "MB", 1},
        {"sim_rounds", cost.rounds, "rounds", list_s.size()},
        {"sim_messages", static_cast<double>(cost.messages), "msgs",
         list_s.size()}},
       checks);
  return checks.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

/// In-memory span log: name, start, end, causing span; spans of one
/// repetition share a trace id. Written out as JSON when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int trace = 0;
    double begin_s = 0.0;
    double end_s = 0.0;
  };

  int begin(const std::string& name, int trace) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, trace, now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
  }
  /// Times `fn` under a span named `name`.
  template <typename F>
  void time(const std::string& name, int trace, F&& fn) {
    const int id = begin(name, trace);
    fn();
    end(id);
  }

  /// Per name: self time of each span (duration minus its children's).
  std::map<std::string, std::vector<double>> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_s - spans_[i].begin_s;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end_s - spans_[i].begin_s;
      }
    }
    std::map<std::string, std::vector<double>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name].push_back(self[i]);
    }
    return by_name;
  }

  void write_json(std::ostream& out) const {
    out.precision(9);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n  {\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"parent\": " << s.parent << ", \"trace\": "
          << s.trace << ", \"begin_s\": " << s.begin_s << ", \"end_s\": "
          << s.end_s << "}";
    }
    out << "\n]}\n";
  }

 private:
  double now() const { return seconds_since(origin_); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

int run_traced(const Workload& w, Setup& s, std::uint64_t seed, double seconds,
               const std::string& out_dir, Checks& checks) {
  const Graph& g = s.in.g;
  const NodeId n = g.node_count();
  SpanLog log;

  // One reference list_kp for the counters, the first-call coupling degree
  // and the run report (written through the library's own collector).
  TraceCollector collector;
  KpListResult ref;
  {
    TelemetryScope scope(collector);
    ListingOutput out(n);
    ref = list_kp_collect(g, w.cfg, out);
    checks.record(out.cliques().fingerprint() == s.initial.fingerprint,
                  "traced list_kp call");
  }
  check_sim_cost(s, sim_cost(ref), "traced list_kp call", checks);
  const std::string stem =
      out_dir.empty()
          ? ""
          : out_dir + "/" + w.name + "-seed" + std::to_string(seed);
  if (!stem.empty()) {
    std::ofstream report(stem + "-run-report.json");
    write_run_report(report, collector, &ref.ledger, "perfbench " + w.name);
  }
  // Where list_kp makes no ARB-LIST call (dyn_churn), it decomposes nothing
  // and calls no arb_list, so there is no such call to time.
  const bool arb_called = !ref.list_traces.empty();
  const std::int64_t cluster_degree =
      arb_called ? ref.list_traces[0].cluster_degree : 0;

  // One forward pass of the seeded lister records the deltas that the
  // CliqueSet churn replay below starts from the seed set.
  const CliqueSet seed_set = s.lister->cliques();
  std::vector<ListingDelta> deltas;
  std::uint64_t cliques_added = 0;
  std::uint64_t flips = 0;
  const auto t_apply = Clock::now();
  for (const UpdateBatch& b : s.in.stream.batches) {
    deltas.push_back(s.lister->apply(b));
    cliques_added += s.lister->last_stats().cliques_added;
    flips += s.lister->last_stats().orientation_flips;
  }
  const double apply_s = seconds_since(t_apply);
  check_lister(checks, *s.lister, s.checkpoints.at(w.batches), "traced pass");
  std::uint64_t churn_ops = 0;
  for (const ListingDelta& d : deltas) {
    churn_ops += d.added.size() + d.removed.size();
  }

  ExpanderDecomposition deco;
  std::size_t reports_per_pass = 0;
  std::vector<double> untraced_list_s;
  const auto t_phase = Clock::now();
  for (int rep = 0; rep < 1 || seconds_since(t_phase) < seconds; ++rep) {
    const int root = log.begin("repetition", rep);
    log.time("graph.generate", rep, [&] { (void)generate(w, seed); });
    log.time("graph.degeneracy", rep, [&] { (void)degeneracy_order(g); });
    if (arb_called) {
      log.time("expander.decompose", rep, [&] {
        DecompositionConfig dcfg = w.cfg.decomposition;
        dcfg.absolute_degree = cluster_degree;
        Rng rng(w.cfg.seed);
        Rng deco_rng = rng.split();
        deco = expander_decompose(g, n, dcfg, deco_rng);
      });
      // The first ARB-LIST call of list_kp, rebuilt from public values.
      const Orientation orient = degeneracy_orientation(g);
      EdgeMask away(g.edge_count());
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        away.set(e, orient.away_from_lower(e));
      }
      EdgeMask es(g.edge_count());
      EdgeMask er(g.edge_count(), true);
      RoundLedger ledger;
      Rng rng(w.cfg.seed);
      ListingOutput out(n);
      ArbListContext ctx;
      ctx.base = &g;
      ctx.ledger = &ledger;
      ctx.cfg = &w.cfg;
      ctx.rng = &rng;
      ctx.out = &out;
      ctx.es_mask = &es;
      ctx.er_mask = &er;
      ctx.away = &away;
      ctx.cluster_degree = cluster_degree;
      ctx.arboricity_bound = std::max<std::int64_t>(1, orient.max_out_degree());
      log.time("core.arb_list", rep, [&] { arb_list(ctx); });
    }
    std::vector<Clique> cliques;
    log.time("enumeration.list", rep,
             [&] { cliques = list_k_cliques(g, w.p); });
    {
      ListingOutput out(n);
      log.time("enumeration.dedup_new", rep, [&] {
        for (const Clique& c : cliques) out.report(c[0], c);
      });
      log.time("enumeration.dedup_hit", rep, [&] {
        for (const Clique& c : cliques) out.report(c[0], c);
      });
      reports_per_pass = cliques.size();
      checks.record(out.cliques().fingerprint() == s.initial.fingerprint,
                    "dedup replay");
    }
    {
      CliqueSet set = seed_set;
      log.time("enumeration.churn_ops", rep, [&] {
        for (const ListingDelta& d : deltas) {
          for (const Clique& c : d.removed) set.erase(c);
          for (const Clique& c : d.added) set.insert(c);
        }
      });
      checks.record(
          set.fingerprint() == s.checkpoints.at(w.batches).fingerprint,
          "churn replay");
    }
    {
      DynamicGraph dg = DynamicGraph::from_graph(g);
      log.time("dynamic.graph", rep, [&] {
        for (const UpdateBatch& b : s.in.stream.batches) {
          for (const Edge& e : b.erase) dg.erase_edge(e.u, e.v);
          for (const Edge& e : b.insert) dg.insert_edge(e.u, e.v);
        }
      });
    }
    {
      DynamicGraph dg = DynamicGraph::from_graph(g);
      DynamicOrientation orient(dg);
      log.time("dynamic.orientation", rep, [&] {
        for (const UpdateBatch& b : s.in.stream.batches) {
          for (const Edge& e : b.erase) {
            orient.on_erase(*dg.erase_edge(e.u, e.v));
          }
          for (const Edge& e : b.insert) {
            orient.on_insert(dg.insert_edge(e.u, e.v).first);
          }
          orient.flush();
        }
      });
    }
    {
      DynamicGraph dg = DynamicGraph::from_graph(g);
      DeltaScratch scratch = make_delta_scratch(w.p);
      const auto nbrs = [&dg](NodeId x) { return dg.neighbors(x); };
      std::uint64_t emitted = 0;
      const auto count = [&emitted](std::span<const NodeId>) { ++emitted; };
      log.time("dynamic.delta", rep, [&] {
        for (const UpdateBatch& b : s.in.stream.batches) {
          for (const Edge& e : b.erase) {
            for_each_clique_with_edge(nbrs, e.u, e.v, w.p, scratch, count);
            dg.erase_edge(e.u, e.v);
          }
          for (const Edge& e : b.insert) {
            dg.insert_edge(e.u, e.v);
            for_each_clique_with_edge(nbrs, e.u, e.v, w.p, scratch, count);
          }
        }
      });
    }
    for (const bool traced : {false, true}) {
      TraceCollector c;
      ListingOutput out(n);
      KpListResult r;
      if (traced) {
        log.time("list_kp.traced", rep, [&] {
          TelemetryScope scope(c);
          r = list_kp_collect(g, w.cfg, out);
        });
      } else {
        const auto t0 = Clock::now();
        r = list_kp_collect(g, w.cfg, out);
        untraced_list_s.push_back(seconds_since(t0));
      }
      checks.record(out.cliques().fingerprint() == s.initial.fingerprint,
                    traced ? "traced list_kp call" : "untraced list_kp call");
      check_sim_cost(s, sim_cost(r), "list_kp call", checks);
    }
    log.end(root);
  }
  if (!stem.empty()) {
    std::ofstream f(stem + "-spans.json");
    log.write_json(f);
  }

  const auto self = log.self_times();
  const auto med = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const std::size_t reps = self.at("repetition").size();
  const std::size_t arb_reps = arb_called ? reps : 0;
  if (!arb_called) {
    std::printf("note: list_kp makes no ARB-LIST call here, so the expander.* "
                "and core.arb_list_s calls are not made and read 0\n");
  }
  const double graph_s = med("dynamic.graph");
  const std::vector<double> traced_list_s = self.at("list_kp.traced");
  const auto per_op_ns = [](double s, std::uint64_t ops) {
    return s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, ops));
  };
  double tail_work = 0.0;
  for (const ArbIterationTrace& t : ref.arb_traces) {
    tail_work += static_cast<double>(t.tail_est_work_total);
  }
  std::printf("trace: %zu repetitions, list_kp traced %.6g s vs untraced "
              "%.6g s\n",
              reps, median(traced_list_s), median(untraced_list_s));
  std::printf("shares of dynamic.apply_s: orientation %.3f, delta %.3f, "
              "CliqueSet replay %.3f\n",
              (med("dynamic.orientation") - graph_s) / apply_s,
              (med("dynamic.delta") - graph_s) / apply_s,
              med("enumeration.churn_ops") / apply_s);
  const auto as_double = [](auto v) { return static_cast<double>(v); };
  const SimCost ref_cost = sim_cost(ref);
  print_cost(s.reference);
  emit({{"graph.generate_s", med("graph.generate"), "s", reps},
        {"graph.degeneracy_s", med("graph.degeneracy"), "s", reps},
        {"expander.decompose_s", med("expander.decompose"), "s", arb_reps},
        {"expander.clusters", as_double(deco.clusters.size()), "count",
         arb_reps},
        {"expander.charged_rounds", deco.charged_rounds, "rounds", arb_reps},
        {"core.arb_list_s", med("core.arb_list"), "s", arb_reps},
        {"core.dup_ratio", ref.duplication_factor, "ratio", 1},
        {"core.tail_est_work", tail_work, "units", 1},
        {"core.arb_iterations", as_double(ref.arb_traces.size()), "count", 1},
        {"enumeration.list_s", med("enumeration.list"), "s", reps},
        {"enumeration.dedup_new_ns",
         per_op_ns(med("enumeration.dedup_new"), reports_per_pass), "ns", reps},
        {"enumeration.dedup_hit_ns",
         per_op_ns(med("enumeration.dedup_hit"), reports_per_pass), "ns", reps},
        {"enumeration.churn_op_ns",
         per_op_ns(med("enumeration.churn_ops"), churn_ops), "ns", reps},
        {"congest.rounds_exchange", ref_cost.exchange, "rounds", 1},
        {"congest.rounds_routing", ref_cost.routing, "rounds", 1},
        {"congest.rounds_analytic", ref_cost.analytic, "rounds", 1},
        {"dynamic.apply_s", apply_s, "s", 1},
        {"dynamic.graph_s", graph_s, "s", reps},
        {"dynamic.orientation_s", med("dynamic.orientation") - graph_s, "s",
         reps},
        {"dynamic.delta_s", med("dynamic.delta") - graph_s, "s", reps},
        {"dynamic.cliques_added", as_double(cliques_added), "count", 1},
        {"dynamic.orientation_flips", as_double(flips), "count", 1},
        {"trace.list_s_p50", median(traced_list_s), "s", traced_list_s.size()},
        {"trace.overhead_s", median(traced_list_s) - median(untraced_list_s),
         "s", traced_list_s.size()}},
       checks);
  return checks.failed == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::optional<SimCost> expect_cost;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
  std::string out_dir;
};

/// "rounds,messages,exchange,routing,analytic", as print_cost writes it.
SimCost parse_cost(const std::string& text) {
  SimCost c;
  char tail = 0;
  unsigned long long messages = 0;
  if (std::sscanf(text.c_str(), "%lf,%llu,%lf,%lf,%lf%c", &c.rounds, &messages,
                  &c.exchange, &c.routing, &c.analytic, &tail) != 5) {
    throw std::invalid_argument(
        "--expect-cost needs 5 comma-separated numbers");
  }
  c.messages = messages;
  return c;
}

Args parse(int argc, char** argv) {
  Args a;
  bool seen_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") {
      a.seed = std::stoull(value());
      seen_seed = true;
    }
    else if (k == "--expect-cost") a.expect_cost = parse_cost(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--out-dir") a.out_dir = value();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--corrupt-expected") a.corrupt = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || !seen_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (!(a.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    Workload w = make_workload(a.workload, a.smoke);
    w.expected = a.expect_cost;
    const std::uint64_t seed = a.seed;
    set_shard_threads(w.threads);
    std::printf("workload %s seed %llu (instance %llu, held-out seed %llu) "
                "p=%d threads=%d batches=%d churn=%d%s\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(w.instance_seed),
                static_cast<unsigned long long>(w.heldout_seed), w.p, w.threads,
                w.batches, w.churn, a.smoke ? " (smoke)" : "");
    Checks checks;
    Setup s = set_up(w, seed, a.corrupt, checks);
    std::printf("setup: n=%d m=%lld cliques=%llu\n", s.in.g.node_count(),
                static_cast<long long>(s.in.g.edge_count()),
                static_cast<unsigned long long>(s.initial.count));
    return a.trace ? run_traced(w, s, seed, a.seconds, a.out_dir, checks)
                   : run_untraced(w, s, seed, a.seconds, checks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
