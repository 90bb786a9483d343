// The serving benchmark: one process runs one workload (tableI_open,
// paged_k16 or lossy_shard4) on the real clock, checks every answer
// against the direct-library reference, and prints its metrics.
//
//   perfbench --workload tableI_open --seed 1 --seconds 20 --trace 0
//             [--trace-out spans.json] [--tiny] [--fixed-queries N]
//             [--commit SHA] [--source-digest HEX]
//   perfbench --list-metrics
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exit status is 0 on success, 1 on an error or a wrong
// answer, 2 on bad usage or a sanitizer build. A run whose load generator
// fell behind its schedule still reports, marked "valid": false in the
// provenance line.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/trace_export.h"
#include "workloads.h"

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr const char* kSanitizer = "address";
#elif __has_feature(thread_sanitizer)
constexpr const char* kSanitizer = "thread";
#else
constexpr const char* kSanitizer = "";
#endif
#else
constexpr const char* kSanitizer = "";
#endif

#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(SPACETWIST_LOCK_RANK_CHECKS)
constexpr bool kLockRankChecks = true;
#else
constexpr bool kLockRankChecks = false;
#endif

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out file] [--tiny] "
               "[--fixed-queries n] [--commit sha] [--source-digest hex]\n"
               "       perfbench --list-metrics\n",
               message);
  return 2;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int ListMetrics() {
  std::string out = "[";
  for (const MetricSpec& m : MetricCatalog()) {
    if (out.size() > 1) out += ",";
    out += "{\"name\":" + Quote(m.name) + ",\"unit\":" + Quote(m.unit) +
           ",\"better\":" + Quote(m.better) + ",\"end_to_end\":" +
           (m.end_to_end ? "true" : "false") + "}";
  }
  std::printf("%s]\n", out.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage(("unexpected " + arg).c_str());
    const std::string key = arg.substr(2);
    if (key == "tiny" || key == "list-metrics") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      return Usage(("missing value for " + arg).c_str());
    }
  }
  if (flags.count("list-metrics") != 0) return ListMetrics();
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(required) == 0) {
      return Usage((std::string("--") + required + " is required").c_str());
    }
  }
  if (kSanitizer[0] != '\0') {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a %s-sanitizer "
                 "build\n",
                 kSanitizer);
    return 2;
  }

  RunOptions options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(flags["seconds"].c_str());
  options.trace = flags["trace"] == "1";
  options.tiny = flags.count("tiny") != 0;
  if (flags.count("fixed-queries") != 0) {
    options.fixed_queries =
        std::strtoull(flags["fixed-queries"].c_str(), nullptr, 10);
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  if (flags["trace"] != "0" && flags["trace"] != "1") {
    return Usage("--trace takes 0 or 1");
  }

  spacetwist::Result<RunResult> run = RunWorkload(options);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const RunResult& result = *run;

  std::map<std::string, const MetricSpec*> catalog;
  for (const MetricSpec& m : MetricCatalog()) catalog[m.name] = &m;
  std::string metrics;
  for (const MetricValue& m : result.metrics) {
    const MetricSpec* spec = catalog.at(m.name);
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("%-36s %14.4f %-8s (%s is better)\n", m.name.c_str(), m.value,
                spec->unit, spec->better);
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(m.name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + Quote(spec->unit) + "}";
  }

  std::string provenance = "{\"workload\": " + Quote(options.workload) +
                           ", \"seed\": " + std::to_string(options.seed) +
                           ", \"seconds\": " + Number(options.seconds) +
                           ", \"trace\": " + (options.trace ? "1" : "0");
  provenance += std::string(", \"build\": {\"ndebug\": ") +
                (kNdebug ? "true" : "false") + ", \"optimized\": " +
                (kOptimized ? "true" : "false") +
                ", \"lock_rank_checks\": " +
                (kLockRankChecks ? "true" : "false") +
                ", \"sanitizer\": \"none\"}";
  provenance += ", \"nproc\": " +
                std::to_string(std::thread::hardware_concurrency());
  provenance += ", \"commit\": " + Quote(flags.count("commit") != 0
                                             ? flags["commit"]
                                             : "unknown");
  if (flags.count("source-digest") != 0) {
    provenance += ", \"source_digest\": " + Quote(flags["source-digest"]);
  }
  for (const auto& [key, json] : result.provenance) {
    provenance += ", " + Quote(key) + ": " + json;
  }
  provenance += std::string(", \"valid\": ") +
                (result.invalid_reason.empty() ? "true" : "false");
  if (!result.invalid_reason.empty()) {
    provenance += ", \"invalid_reason\": " + Quote(result.invalid_reason);
  }
  provenance += "}";
  std::printf("{\"provenance\": %s}\n", provenance.c_str());

  if (options.trace && flags.count("trace-out") != 0) {
    std::ofstream file(flags["trace-out"]);
    file << spacetwist::telemetry::TracesToJson(result.traces);
    if (!file.good()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   flags["trace-out"].c_str());
      return 1;
    }
  }
  if (!result.invalid_reason.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n",
                 result.invalid_reason.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
