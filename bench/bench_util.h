// Shared helpers for the experiment harnesses (E1–E8) and the self-timed
// micro-benchmarks (M1–M3, bench_core).
//
// Each bench binary regenerates one claim of the paper as an ASCII table
// (each bench_e*.cpp header names its claim; EXPERIMENTS.md holds the
// recorded paper-vs-measured outcomes). Workload families live in
// graph/workloads.h so tests and examples can reuse them; helpers here fit
// growth exponents, format output, and time kernels without any external
// benchmarking dependency (see docs/PERFORMANCE.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/workloads.h"

namespace dcl::bench {

// ---------------------------------------------------------------------------
// Self-timed measurement: min-of-k repetitions, auto-scaled iteration counts.
// ---------------------------------------------------------------------------

/// Prevents the optimizer from discarding a computed value.
inline void keep(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(v) : "memory");
#else
  static volatile std::uint64_t sink = 0;
  sink = v;
#endif
}

/// One benchmark result: the minimum per-op time over `repetitions`
/// repetitions (min-of-k rejects scheduler noise; each repetition runs the
/// kernel `iterations` times back to back).
struct Timing {
  std::string name;
  double ns_per_op = 0.0;
  double items_per_sec = 0.0;  ///< 0 when no item count was supplied
  std::int64_t iterations = 0;
  int repetitions = 0;
  /// Extra recorded quantities (clique counts, ledger round totals, ...);
  /// values are exact doubles so fixed-seed runs can be diffed bit-by-bit.
  std::vector<std::pair<std::string, double>> counters;
};

/// Timing-loop knobs; `from_env` reads DCL_BENCH_REPS / DCL_BENCH_MIN_MS so
/// CI smoke runs can shrink the loop without recompiling.
struct TimingConfig {
  int repetitions = 5;
  double min_rep_seconds = 0.15;

  static TimingConfig from_env() {
    TimingConfig cfg;
    if (const char* r = std::getenv("DCL_BENCH_REPS")) {
      cfg.repetitions = std::max(1, std::atoi(r));
    }
    if (const char* ms = std::getenv("DCL_BENCH_MIN_MS")) {
      cfg.min_rep_seconds = std::max(1e-4, std::atof(ms) / 1e3);
    }
    return cfg;
  }
};

/// DCL_BENCH_FILTER=substr restricts the timing loops to benchmarks whose
/// name contains the substring (A/B reruns of one hot entry without paying
/// for the whole suite). Filtered-out benchmarks are skipped (zero
/// iterations) and dropped from the table and the JSON snapshot.
inline bool bench_name_selected(const std::string& name) {
  const char* filter = std::getenv("DCL_BENCH_FILTER");
  return filter == nullptr || name.find(filter) != std::string::npos;
}

/// Times `fn` (which must return a std::uint64_t result that depends on the
/// work done): calibrates an iteration count so one repetition takes at
/// least `cfg.min_rep_seconds`, then reports the fastest repetition.
/// `items_per_iter` scales the derived items/s throughput figure.
template <typename F>
Timing time_kernel(std::string name, F&& fn, double items_per_iter = 0.0,
                   TimingConfig cfg = TimingConfig::from_env()) {
  using clock = std::chrono::steady_clock;
  if (!bench_name_selected(name)) {
    Timing skipped;
    skipped.name = std::move(name);
    return skipped;  // iterations == 0 marks it as filtered out
  }
  const auto run_iters = [&](std::int64_t iters) {
    const auto start = clock::now();
    for (std::int64_t i = 0; i < iters; ++i) keep(fn());
    return std::chrono::duration<double>(clock::now() - start).count();
  };

  // Calibrate: grow the iteration count until a repetition is long enough
  // for the clock to resolve it cleanly.
  std::int64_t iters = 1;
  double elapsed = run_iters(iters);
  while (elapsed < cfg.min_rep_seconds && iters < (std::int64_t{1} << 40)) {
    const double target = std::max(cfg.min_rep_seconds, 1e-6);
    double growth = (elapsed > 0) ? 1.2 * target / elapsed : 16.0;
    growth = std::min(growth, 16.0);
    iters = std::max<std::int64_t>(
        iters + 1, static_cast<std::int64_t>(static_cast<double>(iters) * growth));
    elapsed = run_iters(iters);
  }

  double best = elapsed;
  for (int rep = 1; rep < cfg.repetitions; ++rep) {
    best = std::min(best, run_iters(iters));
  }

  Timing t;
  t.name = std::move(name);
  t.iterations = iters;
  t.repetitions = cfg.repetitions;
  t.ns_per_op = best * 1e9 / static_cast<double>(iters);
  if (items_per_iter > 0.0) {
    t.items_per_sec = items_per_iter * static_cast<double>(iters) / best;
  }
  return t;
}

/// Collects timings, prints them as an ASCII table, and emits the JSON
/// snapshot consumed by tools/run_bench.sh (BENCH_core.json).
class BenchReport {
 public:
  explicit BenchReport(std::string harness) : harness_(std::move(harness)) {}

  Timing& add(Timing t) {
    timings_.push_back(std::move(t));
    return timings_.back();
  }

  void print() const {
    std::printf("%-44s %14s %14s\n", "benchmark", "ns/op", "items/s");
    for (const Timing& t : timings_) {
      if (t.iterations == 0) continue;  // filtered out via DCL_BENCH_FILTER
      std::printf("%-44s %14.1f %14.3g\n", t.name.c_str(), t.ns_per_op,
                  t.items_per_sec);
      for (const auto& [k, v] : t.counters) {
        std::printf("    %-40s %.17g\n", k.c_str(), v);
      }
    }
  }

  /// Writes the snapshot to `path` ("-" = stdout). Returns false on I/O
  /// failure. Counters use %.17g so ledger totals round-trip bit-exactly.
  bool write_json(const char* path) const {
    std::FILE* f = (std::strcmp(path, "-") == 0) ? stdout
                                                 : std::fopen(path, "w");
    if (f == nullptr) return false;
    std::vector<std::size_t> selected;
    for (std::size_t i = 0; i < timings_.size(); ++i) {
      if (timings_[i].iterations > 0) selected.push_back(i);
    }
    std::fprintf(f, "{\n  \"harness\": \"%s\",\n  \"benchmarks\": [\n",
                 harness_.c_str());
    for (std::size_t s = 0; s < selected.size(); ++s) {
      const Timing& t = timings_[selected[s]];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ns_per_op\": %.6g, "
                   "\"items_per_sec\": %.6g, \"iterations\": %lld, "
                   "\"repetitions\": %d",
                   t.name.c_str(), t.ns_per_op, t.items_per_sec,
                   static_cast<long long>(t.iterations), t.repetitions);
      if (!t.counters.empty()) {
        std::fprintf(f, ", \"counters\": {");
        for (std::size_t j = 0; j < t.counters.size(); ++j) {
          std::fprintf(f, "%s\"%s\": %.17g", j ? ", " : "",
                       t.counters[j].first.c_str(), t.counters[j].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}%s\n", (s + 1 < selected.size()) ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (f != stdout) std::fclose(f);
    return true;
  }

 private:
  std::string harness_;
  std::vector<Timing> timings_;
};

/// Prints the report and writes the JSON snapshot when `--out` was given.
/// Shared tail of every self-timed harness's run().
inline int finish_report(const BenchReport& report, const char* out_path) {
  report.print();
  if (out_path != nullptr && !report.write_json(out_path)) {
    std::fprintf(stderr, "bench: cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}

/// The standard bench CLI: `prog [--out FILE]`. Parses argv and forwards
/// to `run`; returns 2 on usage errors. Shared main() of every harness.
template <typename RunFn>
int bench_main(int argc, char** argv, RunFn&& run) {
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  return run(out_path);
}

using dcl::clustered_workload;
using dcl::periphery_workload;
using dcl::power_workload;
using dcl::ring_of_cliques_workload;

/// Averages a measured quantity over `seeds` runs.
template <typename F>
double average_over_seeds(int seeds, F&& run_one) {
  double total = 0.0;
  for (int s = 1; s <= seeds; ++s) {
    total += run_one(static_cast<std::uint64_t>(s));
  }
  return total / seeds;
}

/// Prints the fitted exponent line used by every scaling experiment.
inline void print_exponent(const char* label, const std::vector<double>& ns,
                           const std::vector<double>& rounds,
                           double predicted) {
  const LinearFit fit = fit_power_law(ns, rounds);
  std::printf(
      "%s: fitted exponent %.3f (R^2 %.3f), paper predicts %.3f "
      "[Õ(·) hides polylog factors]\n",
      label, fit.slope, fit.r_squared, predicted);
}

inline std::string format_double(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace dcl::bench
