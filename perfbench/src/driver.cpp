// perfbench_driver: runs one benchmark workload and writes what it measured
// as a detail JSON file (machine attribution, operation counts, metrics).
// run.py builds this binary, runs it and prints the one-line result.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --cache <dir> --work <dir> --out <file> --commit <rev>
//
// Exit codes: 0 measured; 1 a correctness gate or the workload failed (no
// numbers are written); 2 bad arguments.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "nn/kernels/kernels.h"
#include "runtime/jsonl.h"

using namespace perfbench;

namespace {

void write_detail(const Args& a, const Result& r) {
  namespace k = rowpress::nn::kernels;
  using rowpress::runtime::JsonWriter;
  JsonWriter machine;
  machine.field("backend", std::string(k::backend_name(k::active_backend())))
      .field("cpu_features", k::cpu_features_string())
      .field("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .field("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .field("compiler", std::string("gcc ") + __VERSION__)
      .field("commit", a.commit);
  JsonWriter metrics;
  for (const auto& [name, vu] : r.metrics) {
    if (!std::isfinite(vu.first))
      throw std::runtime_error("metric " + name + " is not finite");
    metrics.field_raw(name, JsonWriter().field("value", vu.first).field("unit", vu.second).str());
  }
  std::string notes = "[";
  for (std::size_t i = 0; i < r.notes.size(); ++i)
    notes += (i ? ",\"" : "\"") + rowpress::runtime::json_escape(r.notes[i]) + "\"";
  notes += "]";
  const std::string j = JsonWriter()
                            .field("workload", a.workload)
                            .field_u64("seed", a.seed)
                            .field("trace", a.trace)
                            .field_raw("machine", machine.str())
                            .field("attempted", r.attempted)
                            .field("failed", r.failed)
                            .field_raw("metrics", metrics.str())
                            .field_raw("notes", notes)
                            .str();
  const std::string tmp = a.out + ".tmp";
  {
    std::ofstream out(tmp);
    out << j << '\n';
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, a.out);
}

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--cache") a.cache_dir = val;
    else if (key == "--work") a.work_dir = val;
    else if (key == "--out") a.out = val;
    else if (key == "--commit") a.commit = val;
    else return usage(("unknown flag " + key).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (a.cache_dir.empty() || a.work_dir.empty() || a.out.empty() || a.commit.empty())
    return usage("--cache, --work, --out and --commit are required");

  void (*workload)(const Args&, Result&) = nullptr;
  if (a.workload == "table1-greedy") workload = run_table1;
  else if (a.workload == "bnb-mini") workload = run_bnb;
  else if (a.workload == "serve-resnet20") workload = run_serve;
  else return usage(("unknown workload '" + a.workload + "'").c_str());

  try {
    std::filesystem::create_directories(a.cache_dir);
    std::filesystem::create_directories(a.work_dir);
    warm_table1(a);
    warm_bnb(a);
    warm_serve(a);
    Result r;
    workload(a, r);
    write_detail(a, r);
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "perfbench_driver: correctness gate failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
