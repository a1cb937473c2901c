// bench_core — the perf trajectory baseline (see docs/PERFORMANCE.md).
//
// Times the hot kernels every listing algorithm runs on (sequential
// enumeration over ER and planted-clique inputs) plus the end-to-end
// distributed Kp lister, and records fixed-seed round-ledger totals so a
// refactor can prove it changed *speed* without changing the *cost model*:
// the counters in the emitted JSON must stay bit-identical across perf PRs.
//
// Usage: bench_core [--out FILE]    (FILE defaults to "-" = stdout table +
// no JSON; tools/run_bench.sh writes BENCH_core.json). The timing loop is
// shrunk for CI smoke runs via DCL_BENCH_REPS / DCL_BENCH_MIN_MS.
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "common/parallel_for.h"
#include "common/telemetry.h"
#include "congest/clique_network.h"
#include "congest/congest_network.h"
#include "congest/fault_plan.h"
#include "core/kp_lister.h"
#include "dynamic/dynamic_lister.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

namespace dcl::bench {
namespace {

/// Message-plane benchmarks: the same fixed traffic patterns as
/// bench_m3_simulator, recorded here so the end-to-end perf anchor tracks
/// the simulators too. The per-phase round cost is a fixed-seed
/// fingerprint.
void simulator_benchmarks(BenchReport& report) {
  {
    Rng rng(1);
    const Graph g = erdos_renyi_gnm(1024, 16384, rng);
    CongestNetwork net(g);
    std::int64_t phase_rounds = 0;
    auto& t = report.add(time_kernel(
        "sim_congest_phase/n1024_m16384",
        [&] {
          net.begin_phase("bench");
          for (NodeId v = 0; v < g.node_count(); ++v) {
            for (const NodeId w : g.neighbors(v)) {
              net.send(v, w, Message{.tag = 1, .a = v, .b = w});
            }
          }
          phase_rounds = net.end_phase();
          return static_cast<std::uint64_t>(phase_rounds);
        },
        static_cast<double>(2 * g.edge_count())));
    t.counters.emplace_back("phase_rounds",
                            static_cast<double>(phase_rounds));
  }
  {
    CliqueNetwork net(256, CliqueRoutingMode::lenzen);
    std::int64_t phase_rounds = 0;
    auto& t = report.add(time_kernel(
        "sim_clique_lenzen/n256_20k",
        [&] {
          Rng rng(2);
          net.begin_phase("bench");
          for (int i = 0; i < 20000; ++i) {
            const auto a = static_cast<NodeId>(rng.next_below(256));
            auto b = static_cast<NodeId>(rng.next_below(255));
            if (b >= a) ++b;
            net.send(a, b, Message{.tag = i});
          }
          phase_rounds = net.end_phase();
          return static_cast<std::uint64_t>(phase_rounds);
        },
        20000.0));
    t.counters.emplace_back("phase_rounds",
                            static_cast<double>(phase_rounds));
  }
}

void enumeration_benchmarks(BenchReport& report, const char* input_name,
                            const Graph& g) {
  for (const int p : {3, 4}) {
    const std::uint64_t cliques = count_k_cliques(g, p);
    {
      auto& t = report.add(time_kernel(
          std::string("count_k_cliques/p=") + std::to_string(p) + "/" +
              input_name,
          [&] { return count_k_cliques(g, p); },
          static_cast<double>(cliques)));
      t.counters.emplace_back("cliques", static_cast<double>(cliques));
    }
    {
      auto& t = report.add(time_kernel(
          std::string("list_k_cliques/p=") + std::to_string(p) + "/" +
              input_name,
          [&] { return static_cast<std::uint64_t>(list_k_cliques(g, p).size()); },
          static_cast<double>(cliques)));
      t.counters.emplace_back("cliques", static_cast<double>(cliques));
    }
  }
}

/// Attaches a machine-readable dcl-run-report to a bench entry: when
/// DCL_BENCH_REPORT_DIR is set, the collector gathered during the entry's
/// untimed reference run is written to <dir>/<name>.report.json (slashes
/// in the entry name become underscores). The timing loops never collect,
/// so attachment cannot perturb the measurement.
void maybe_attach_report(const std::string& entry_name,
                         const TraceCollector& collector,
                         const RoundLedger* ledger) {
  const char* dir = std::getenv("DCL_BENCH_REPORT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string file = entry_name;
  for (char& c : file) {
    if (c == '/') c = '_';
  }
  const std::string path = std::string(dir) + "/" + file + ".report.json";
  std::ofstream out(path);
  if (!out) return;
  write_run_report(out, collector, ledger, entry_name);
}

void list_kp_benchmark(BenchReport& report, const char* input_name,
                       const Graph& g, int p, double stop_scale = 0.1) {
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = 7;
  cfg.stop_scale = stop_scale;  // drive the iterated pipeline, not just the
                                // final broadcast, so the masks and dedup
                                // paths are hot
  const std::string suffix =
      std::string("/p=") + std::to_string(p) + "/" + input_name;
  // One fixed-seed reference run: the ledger totals are the cost-model
  // fingerprint that perf refactors must keep bit-identical. It runs under
  // a collector (collection is non-perturbing — the teleoff A/B entries
  // prove it) so the entry can attach a run report.
  TraceCollector ref_trace;
  const KpListResult ref = [&] {
    TelemetryScope scope(ref_trace);
    return list_kp(g, cfg);
  }();
  maybe_attach_report("list_kp" + suffix, ref_trace, &ref.ledger);
  {
    auto& t = report.add(time_kernel(
        "list_kp" + suffix,
        [&] { return list_kp(g, cfg).total_reports; },
        static_cast<double>(ref.unique_cliques)));
    t.counters.emplace_back("ledger_total_rounds", ref.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(ref.unique_cliques));
    t.counters.emplace_back("total_reports",
                            static_cast<double>(ref.total_reports));
  }
  {
    // The same end-to-end run at 4 shards. DCL_THREADS is a pure speed
    // knob, so this entry's counters must be bit-identical to the
    // single-thread entry above — committing both makes the thread
    // invariance part of the CI-enforced fingerprint surface, and the
    // ns_per_op gap is the measured cluster-parallel speedup.
    const int previous = shard_threads();
    set_shard_threads(4);
    TraceCollector ref4_trace;
    const KpListResult ref4 = [&] {  // counters from a 4-shard run
      TelemetryScope scope(ref4_trace);
      return list_kp(g, cfg);
    }();
    maybe_attach_report("list_kp_t4" + suffix, ref4_trace, &ref4.ledger);
    auto& t = report.add(time_kernel(
        "list_kp_t4" + suffix,
        [&] { return list_kp(g, cfg).total_reports; },
        static_cast<double>(ref4.unique_cliques)));
    set_shard_threads(previous);
    t.counters.emplace_back("ledger_total_rounds", ref4.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(ref4.unique_cliques));
    t.counters.emplace_back("total_reports",
                            static_cast<double>(ref4.total_reports));
  }
}

/// Folds a 64-bit fingerprint into 32 bits so the JSON double (%.17g)
/// round-trips it bit-exactly (doubles hold integers < 2^53 exactly).
double fold_fingerprint(std::uint64_t fp) {
  return static_cast<double>((fp ^ (fp >> 32)) & 0xffffffffULL);
}

/// Telemetry A/B: the same fixed-seed list_kp run with the observability
/// plane disabled (A: no collector installed — every probe is one relaxed
/// atomic load) and enabled (B: a TraceCollector installed around each
/// run). Mirrors fault_plane_ab_benchmark: the committed counters — ledger
/// totals, folded clique fingerprints, and the explicit ab_*_equal flags —
/// prove the instrumented pipeline's cost model and output are
/// bit-identical with telemetry on and off, and the ns_per_op gap measures
/// what collection (B) and the disabled probes (A) actually cost.
void telemetry_ab_benchmark(BenchReport& report) {
  Rng rng(17);
  const Graph g = erdos_renyi_gnm(140, 3200, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 7;
  cfg.stop_scale = 0.1;

  ListingOutput out_a(g.node_count());
  const KpListResult ref_a = list_kp_collect(g, cfg, out_a);

  TraceCollector collector;
  ListingOutput out_b(g.node_count());
  const KpListResult ref_b = [&] {
    TelemetryScope scope(collector);
    return list_kp_collect(g, cfg, out_b);
  }();
  const bool ledgers_equal = [&] {
    const auto& ea = ref_a.ledger.entries();
    const auto& eb = ref_b.ledger.entries();
    if (ea.size() != eb.size()) return false;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].label != eb[i].label || ea[i].rounds != eb[i].rounds ||
          ea[i].messages != eb[i].messages) {
        return false;
      }
    }
    return true;
  }();
  const bool fingerprints_equal =
      out_a.cliques().fingerprint() == out_b.cliques().fingerprint();
  maybe_attach_report("list_kp_teleoff_b/p=4/er_n140_m3200", collector,
                      &ref_b.ledger);

  {
    auto& t = report.add(time_kernel(
        "list_kp_teleoff_a/p=4/er_n140_m3200",
        [&] { return list_kp(g, cfg).total_reports; },
        static_cast<double>(ref_a.unique_cliques)));
    t.counters.emplace_back("ledger_total_rounds", ref_a.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(ref_a.unique_cliques));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(out_a.cliques().fingerprint()));
  }
  {
    auto& t = report.add(time_kernel(
        "list_kp_teleoff_b/p=4/er_n140_m3200",
        [&] {
          TraceCollector per_run;
          TelemetryScope scope(per_run);
          return list_kp(g, cfg).total_reports;
        },
        static_cast<double>(ref_b.unique_cliques)));
    t.counters.emplace_back("ledger_total_rounds", ref_b.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(ref_b.unique_cliques));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(out_b.cliques().fingerprint()));
    t.counters.emplace_back("span_count",
                            static_cast<double>(collector.spans().size()));
    t.counters.emplace_back("ab_ledgers_equal", ledgers_equal ? 1.0 : 0.0);
    t.counters.emplace_back("ab_fingerprints_equal",
                            fingerprints_equal ? 1.0 : 0.0);
  }
}

/// Fault-plane A/B: the same fixed-seed list_kp run with cfg.faults left
/// null (A) and with an *inert* FaultPlan attached (B). The two entries are
/// measured back to back on the identical input (re-run either alone via
/// DCL_BENCH_FILTER=list_kp_faultoff for a tighter interleave); their
/// counters — ledger totals, clique counts, folded clique fingerprints, and
/// the explicit ab_*_equal flags — are committed to BENCH_core.json, so CI
/// enforces bit-identical cost models and the ns_per_op gap measures what
/// the disabled hooks cost (expected: nothing).
void fault_plane_ab_benchmark(BenchReport& report) {
  Rng rng(16);
  const Graph g = erdos_renyi_gnm(140, 3200, rng);
  KpConfig cfg_a;
  cfg_a.p = 4;
  cfg_a.seed = 7;
  cfg_a.stop_scale = 0.1;
  FaultPlan inert;  // default spec: enabled() == false, every hook dormant
  KpConfig cfg_b = cfg_a;
  cfg_b.faults = &inert;

  ListingOutput out_a(g.node_count());
  const KpListResult ref_a = list_kp_collect(g, cfg_a, out_a);
  ListingOutput out_b(g.node_count());
  const KpListResult ref_b = list_kp_collect(g, cfg_b, out_b);
  const bool ledgers_equal = [&] {
    const auto& ea = ref_a.ledger.entries();
    const auto& eb = ref_b.ledger.entries();
    if (ea.size() != eb.size()) return false;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].label != eb[i].label || ea[i].rounds != eb[i].rounds ||
          ea[i].messages != eb[i].messages) {
        return false;
      }
    }
    return true;
  }();
  const bool fingerprints_equal =
      out_a.cliques().fingerprint() == out_b.cliques().fingerprint();

  {
    auto& t = report.add(time_kernel(
        "list_kp_faultoff_a/p=4/er_n140_m3200",
        [&] { return list_kp(g, cfg_a).total_reports; },
        static_cast<double>(ref_a.unique_cliques)));
    t.counters.emplace_back("ledger_total_rounds", ref_a.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(ref_a.unique_cliques));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(out_a.cliques().fingerprint()));
  }
  {
    auto& t = report.add(time_kernel(
        "list_kp_faultoff_b/p=4/er_n140_m3200",
        [&] { return list_kp(g, cfg_b).total_reports; },
        static_cast<double>(ref_b.unique_cliques)));
    t.counters.emplace_back("ledger_total_rounds", ref_b.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(ref_b.unique_cliques));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(out_b.cliques().fingerprint()));
    t.counters.emplace_back("retry_rounds", ref_b.ledger.retry_rounds());
    t.counters.emplace_back("ab_ledgers_equal", ledgers_equal ? 1.0 : 0.0);
    t.counters.emplace_back("ab_fingerprints_equal",
                            fingerprints_equal ? 1.0 : 0.0);
  }
}

/// Batch-dynamic maintenance vs from-scratch recompute on the identical
/// update stream — the amortization claim of docs/PERFORMANCE.md, plus
/// fixed-seed delta fingerprints (clique totals, CliqueSet fingerprint,
/// arboricity witness) that must stay bit-identical across perf PRs.
void dynamic_benchmarks(BenchReport& report) {
  const int p = 4;
  Rng stream_rng(5);
  const UpdateStream stream = churn_stream(512, 8192, 48, 24, stream_rng);
  const Graph initial = Graph::from_edges(stream.n, stream.initial);
  const auto batches = static_cast<double>(stream.batches.size());

  // One reference replay for the fingerprint counters (collected, so the
  // entry can attach a run report; the dynamic engine is purely local —
  // no ledger section).
  std::uint64_t added_total = 0, removed_total = 0;
  TraceCollector churn_trace;
  DynamicLister ref(initial, p);
  {
    TelemetryScope scope(churn_trace);
    for (const UpdateBatch& b : stream.batches) {
      ref.apply(b);
      added_total += ref.last_stats().cliques_added;
      removed_total += ref.last_stats().cliques_removed;
    }
  }
  maybe_attach_report("dyn_churn_apply/p=4/n512_m8192_b48", churn_trace,
                      nullptr);

  {
    auto& t = report.add(time_kernel(
        "dyn_churn_apply/p=4/n512_m8192_b48",
        [&] {
          DynamicLister lister(initial, p);
          std::uint64_t acc = 0;
          for (const UpdateBatch& b : stream.batches) {
            lister.apply(b);
            acc += lister.last_stats().cliques_added;
          }
          return acc ^ lister.fingerprint();
        },
        batches));
    t.counters.emplace_back("clique_count",
                            static_cast<double>(ref.clique_count()));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(ref.fingerprint()));
    t.counters.emplace_back("cliques_added_total",
                            static_cast<double>(added_total));
    t.counters.emplace_back("cliques_removed_total",
                            static_cast<double>(removed_total));
    t.counters.emplace_back(
        "arboricity_witness",
        static_cast<double>(ref.last_stats().arboricity_witness));
  }
  {
    // The from-scratch alternative: apply the updates structurally, then
    // re-enumerate and rebuild the clique set at every checkpoint.
    auto& t = report.add(time_kernel(
        "dyn_churn_recompute/p=4/n512_m8192_b48",
        [&] {
          DynamicGraph g = DynamicGraph::from_graph(initial);
          std::uint64_t acc = 0;
          for (const UpdateBatch& b : stream.batches) {
            for (const Edge& e : b.erase) g.erase_edge(e.u, e.v);
            for (const Edge& e : b.insert) g.insert_edge(e.u, e.v);
            CliqueSet set;
            const auto all = list_k_cliques(g.snapshot(), p);
            set.reserve(all.size());
            for (const auto& c : all) set.insert(c);
            acc = set.size() ^ set.fingerprint();
          }
          return acc;
        },
        batches));
    t.counters.emplace_back("clique_count",
                            static_cast<double>(ref.clique_count()));
  }
  {
    // Second family for fingerprint surface: sliding-window growth and
    // expiry (batch sizes well above churn's, different delta shape;
    // p = 3 — the window graph's density regime).
    const int wp = 3;
    Rng window_rng(6);
    const UpdateStream window = sliding_window_stream(400, 24, 600, 4,
                                                      window_rng);
    const Graph window_initial = Graph::from_edges(window.n, window.initial);
    std::uint64_t w_added = 0, w_removed = 0;
    TraceCollector window_trace;
    DynamicLister w_ref(window_initial, wp);
    {
      TelemetryScope scope(window_trace);
      for (const UpdateBatch& b : window.batches) {
        w_ref.apply(b);
        w_added += w_ref.last_stats().cliques_added;
        w_removed += w_ref.last_stats().cliques_removed;
      }
    }
    maybe_attach_report("dyn_window_apply/p=3/n400_b24_w4", window_trace,
                        nullptr);
    auto& t = report.add(time_kernel(
        "dyn_window_apply/p=3/n400_b24_w4",
        [&] {
          DynamicLister lister(window_initial, wp);
          std::uint64_t acc = 0;
          for (const UpdateBatch& b : window.batches) {
            lister.apply(b);
            acc += lister.last_stats().cliques_removed;
          }
          return acc ^ lister.fingerprint();
        },
        static_cast<double>(window.batches.size())));
    t.counters.emplace_back("clique_count",
                            static_cast<double>(w_ref.clique_count()));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(w_ref.fingerprint()));
    t.counters.emplace_back("cliques_added_total",
                            static_cast<double>(w_added));
    t.counters.emplace_back("cliques_removed_total",
                            static_cast<double>(w_removed));
  }
}

int run(const char* out_path) {
  BenchReport report("bench_core");

  Rng er_rng(1);
  const Graph er2000 = erdos_renyi_gnm(2000, 30000, er_rng);
  enumeration_benchmarks(report, "er_n2000_m30000", er2000);

  Rng planted_rng(2);
  const Graph planted = planted_clique(2000, 24, 0.01, planted_rng).graph;
  enumeration_benchmarks(report, "planted_n2000_k24", planted);

  Rng kp_rng(3);
  const Graph kp_input = erdos_renyi_gnm(140, 3200, kp_rng);
  list_kp_benchmark(report, "er_n140_m3200", kp_input, 4);
  Rng kp5_rng(4);
  const Graph kp5_input = erdos_renyi_gnm(120, 2200, kp5_rng);
  list_kp_benchmark(report, "er_n120_m2200", kp5_input, 5);
  // Multi-cluster instance: the ER inputs above decompose into ONE
  // cluster, so they cannot exercise the cluster-parallel ARB-LIST tail.
  // The ring-of-cliques workload splits into 8 clusters in the first
  // iteration — the shape the per-cluster sharding (and its fingerprint
  // surface) actually covers.
  Rng ring_rng(13);
  const Graph ring_input = ring_of_cliques_workload(480, ring_rng, 8);
  list_kp_benchmark(report, "ring8_n480", ring_input, 4);
  // The q=1 one-huge-cluster regime at real scale: this ER input
  // decomposes into a SINGLE cluster, so the cluster-level sharding above
  // has nothing to split — the entry covers the two-level scheduler's
  // intra-cluster representative-range shards instead (stop_scale 0.01
  // forces the iterated pipeline at n=2000; the default 0.1 threshold
  // stops before ARB-LIST on this input). Its t4 twin pins the
  // thread-invariance fingerprint for exactly the regime ISSUE 6 cracked.
  Rng q1_rng(14);
  const Graph q1_input = erdos_renyi_gnm(2000, 30000, q1_rng);
  list_kp_benchmark(report, "er1c_n2000_m30000", q1_input, 4, 0.01);

  fault_plane_ab_benchmark(report);
  telemetry_ab_benchmark(report);
  simulator_benchmarks(report);
  dynamic_benchmarks(report);

  return finish_report(report, out_path);
}

}  // namespace
}  // namespace dcl::bench

int main(int argc, char** argv) {
  return dcl::bench::bench_main(argc, argv, dcl::bench::run);
}
