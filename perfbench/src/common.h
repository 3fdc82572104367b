// Shared plumbing of the benchmark driver: arguments, the measured-metric
// record each workload fills, wall-clock helpers, the private model and
// profile cache, and the correctness-gate failure type.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "dram/device.h"
#include "exp/experiment.h"
#include "models/zoo.h"
#include "telemetry/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;  ///< private model/profile cache of this source tree
  std::string work_dir;   ///< scratch for journals; removed by run.py
  std::string out;        ///< detail JSON written here
  std::string commit;     ///< source revision the build was made from
};

/// A correctness gate failed: the run reports no numbers.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void gate(bool ok, const std::string& what);

/// What one run measured.  The driver writes it as the detail JSON; run.py
/// turns it into the one-line result.
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> notes;  ///< informational lines (cold times...)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line);
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Model/dataset names as the per-layer ledger spells them.
std::string model_key(const std::string& zoo_name);   // "ResNet-20" -> resnet20
std::string dataset_key(rowpress::models::DatasetKind kind);  // vision10 ...

const rowpress::models::ModelSpec& zoo_model(const std::string& name);

/// Trains missing zoo victims and profiles into the private cache, printing
/// cold times once.
void warm_zoo(const Args& args, const std::vector<std::string>& models);
void warm_profiles(const Args& args, const rowpress::dram::DeviceConfig& chip);

/// Setup helpers shared by the workloads; each records its own time into
/// `ms` so the traced run can attribute setup_s.
rowpress::data::SplitDataset synth(rowpress::models::DatasetKind kind,
                                   double* ms);
rowpress::exp::PreparedModel load_model(const Args& args,
                                        const rowpress::models::ModelSpec& spec,
                                        const rowpress::data::SplitDataset& data,
                                        double* ms);
rowpress::exp::ProfilePair load_profiles(const Args& args,
                                         rowpress::dram::Device& device,
                                         double* ms);

/// Durations (ms) of every trace event named `name`.
std::vector<double> span_ms(const std::vector<rowpress::telemetry::TraceEvent>& events,
                            const std::string& name);

/// Writes the traced run's spans as a Chrome trace next to the detail file
/// (`<out minus .json>.trace.json`, loadable in chrome://tracing or
/// Perfetto).
void write_trace(const Args& args,
                 const std::vector<rowpress::telemetry::TraceEvent>& events);

/// Records `<prefix>.p50`, `<prefix>.tail` and `<prefix>.n` under the
/// percentile rule (ledger.h).
void set_tail(Result& r, const std::string& prefix, std::vector<double> ms);

/// Fill the private cache each workload needs.  The driver warms every
/// workload's cache before any workload runs, so only the first run of a
/// source tree pays for training.
void warm_table1(const Args& args);
void warm_bnb(const Args& args);
void warm_serve(const Args& args);

/// Workloads.  Each fills `r` with the end-to-end metrics (untraced run) or
/// the per-layer ledger (traced run) and throws GateFailure on a failed
/// correctness gate.
void run_table1(const Args& args, Result& r);
void run_bnb(const Args& args, Result& r);
void run_serve(const Args& args, Result& r);

/// Loads the digests recorded by an earlier run of `workload` in the cache
/// of this source tree and gates equality with `digests`; records them
/// when absent.  The cross-run half of the chain-CRC gate.
void gate_against_previous_runs(const Args& args, const std::string& workload,
                                const std::map<std::string, std::uint32_t>& digests);

}  // namespace perfbench
