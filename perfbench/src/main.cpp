// EdgeHD benchmark driver: runs one workload and writes its run record.
//
//   edgehd_perfbench --workload <train_deep|serve_open>
//                    --seed <n> --seconds <s> --trace <0|1> --result <file>
//                    [--spans <file>] [--threads <n>] [--tamper]
//
// perfbench/run.py builds this program, runs it and validates the record.
// The record is JSON: metrics (name -> value, unit), correctness checks,
// the deterministic digest, attempted/failed operation counts and the run
// environment. With --spans, the traced run's spans are written too.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_record(const std::string& path, const Options& opt,
                  const RunRecord& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  const auto& reg = edgehd::obs::MetricsRegistry::global();
  std::string s = "{\"workload\": " + quoted(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"workers\": " +
                  std::to_string(opt.threads) + ", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"kernel_backend\": " +
                  quoted(reg.label("hdc.kernel.backend")) +
                  ", \"attempted\": " + std::to_string(rec.attempted) +
                  ", \"failed\": " + std::to_string(rec.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    const auto& [name, m] = rec.metrics[i];
    s += (i ? ", " : "") + quoted(name) + ": {\"value\": " + number(m.value) +
         ", \"unit\": " + quoted(m.unit) + "}";
  }
  s += "}, \"checks\": [";
  for (std::size_t i = 0; i < rec.checks.size(); ++i) {
    const auto& c = rec.checks[i];
    s += std::string(i ? ", " : "") + "{\"name\": " + quoted(c.name) +
         ", \"passed\": " + (c.passed ? "true" : "false") +
         ", \"detail\": " + quoted(c.detail) + "}";
  }
  s += "], \"digest\": {";
  for (std::size_t i = 0; i < rec.digest.size(); ++i) {
    s += (i ? ", " : "") + quoted(rec.digest[i].first) + ": " +
         quoted(rec.digest[i].second);
  }
  s += "}}\n";
  std::fputs(s.c_str(), f);
  std::fclose(f);
}

/// Writes every span and prints self time per span name, per round.
void write_spans(const std::string& path, const SpanRecorder& rec) {
  const auto self = rec.self_times();
  std::map<std::pair<std::uint32_t, std::string>, std::pair<double, double>> by;
  std::string s = "[";
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const auto& sp = rec.spans()[i];
    s += std::string(i ? ",\n " : "") + "{\"name\": " + quoted(sp.name) +
         ", \"start\": " + number(sp.start) + ", \"end\": " + number(sp.end) +
         ", \"parent\": " + std::to_string(sp.parent) +
         ", \"run_id\": " + std::to_string(sp.run_id) + "}";
    auto& agg = by[{sp.run_id, sp.name}];
    agg.first += sp.end - sp.start;
    agg.second += self[i];
  }
  s += "]\n";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(s.c_str(), f);
    std::fclose(f);
  }
  for (const auto& [key, t] : by) {
    std::printf("span run %u %-28s total %9.4f s  self %9.4f s\n", key.first,
                key.second.c_str(), t.first, t.second);
  }
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "edgehd_perfbench: %s\n", msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string result_path, spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--threads") {
      opt.threads = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--tamper") {
      opt.tamper = true;
    } else if (a == "--result") {
      result_path = value();
    } else if (a == "--spans") {
      spans_path = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (result_path.empty()) usage("--result is required");
  if (opt.threads == 0) {
    opt.threads = std::min(4U, std::max(1U, std::thread::hardware_concurrency()));
  }

  SpanRecorder rec;
  rec.enabled = opt.trace;
  RunRecord run;
  if (opt.workload == "train_deep") {
    run = train_deep(opt, rec);
  } else if (opt.workload == "serve_open") {
    run = serve_open(opt, rec);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  // Failed checks count as failed operations.
  for (const auto& c : run.checks) {
    ++run.attempted;
    if (!c.passed) ++run.failed;
    std::printf("check %-36s %s  (%s)\n", c.name.c_str(),
                c.passed ? "ok" : "FAILED", c.detail.c_str());
  }
  run.metric("peak_rss_mb", peak_rss_mb(), "MB");
  run.metric("ok_frac",
             1.0 - static_cast<double>(run.failed) /
                       static_cast<double>(run.attempted),
             "frac");
  if (opt.trace && !spans_path.empty()) write_spans(spans_path, rec);
  write_record(result_path, opt, run);
  return 0;
}
