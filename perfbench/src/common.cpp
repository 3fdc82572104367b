#include "common.h"

#include <sys/resource.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ledger.h"

namespace perfbench {

using namespace rowpress;

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

void Result::note(const std::string& line) {
  std::fprintf(stderr, "perfbench: %s\n", line.c_str());
  notes.push_back(line);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string model_key(const std::string& zoo_name) {
  // "ResNet-20" -> resnet20, "DeiT-T" -> deit_t, "M11" -> m11.
  std::string out;
  for (std::size_t i = 0; i < zoo_name.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(zoo_name[i]);
    if (std::isalnum(c))
      out += static_cast<char>(std::tolower(c));
    else if (i + 1 < zoo_name.size() &&
             std::isalpha(static_cast<unsigned char>(zoo_name[i + 1])))
      out += '_';
  }
  return out;
}

std::string dataset_key(models::DatasetKind kind) {
  switch (kind) {
    case models::DatasetKind::kVision10: return "vision10";
    case models::DatasetKind::kVision50: return "vision50";
    case models::DatasetKind::kSpeech35: return "speech35";
  }
  return "vision10";
}

const models::ModelSpec& zoo_model(const std::string& name) {
  static const std::vector<models::ModelSpec> zoo = models::model_zoo();
  return models::find_model(zoo, name);
}

void warm_zoo(const Args& args, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    // exp::prepare_trained_model's cache file name.
    if (std::filesystem::exists(args.cache_dir + "/" + name + "_seed1.rpms"))
      continue;
    const models::ModelSpec& spec = zoo_model(name);
    const data::SplitDataset data = models::make_dataset(spec.dataset);
    const double t0 = now_s();
    const exp::PreparedModel m =
        exp::prepare_trained_model(spec, data, args.cache_dir, 1);
    std::fprintf(stderr, "perfbench: cold train %s: %.1f s (test acc %.3f)\n",
                 name.c_str(), now_s() - t0, m.stats.test_accuracy);
  }
}

void warm_profiles(const Args& args, const dram::DeviceConfig& chip) {
  const std::string tag = std::to_string(chip.geometry.num_banks) + "x" +
                          std::to_string(chip.geometry.rows_per_bank);
  if (std::filesystem::exists(args.cache_dir + "/profile_rp_" + tag + ".txt"))
    return;
  const double t0 = now_s();
  dram::Device device(chip);
  (void)exp::build_or_load_profiles(device, args.cache_dir);
  std::fprintf(stderr, "perfbench: cold profile %s chip: %.1f s\n", tag.c_str(),
               now_s() - t0);
}

data::SplitDataset synth(models::DatasetKind kind, double* ms) {
  const double t0 = now_s();
  data::SplitDataset d = models::make_dataset(kind);
  *ms = (now_s() - t0) * 1e3;
  return d;
}

exp::PreparedModel load_model(const Args& args, const models::ModelSpec& spec,
                              const data::SplitDataset& data, double* ms) {
  const double t0 = now_s();
  exp::PreparedModel m =
      exp::prepare_trained_model(spec, data, args.cache_dir, 1);
  *ms = (now_s() - t0) * 1e3;
  gate(m.from_cache, "model " + spec.name + " missing from the warm cache");
  return m;
}

exp::ProfilePair load_profiles(const Args& args, dram::Device& device,
                               double* ms) {
  const double t0 = now_s();
  exp::ProfilePair p = exp::build_or_load_profiles(device, args.cache_dir);
  *ms = (now_s() - t0) * 1e3;
  return p;
}

std::vector<double> span_ms(const std::vector<telemetry::TraceEvent>& events,
                            const std::string& name) {
  std::vector<double> out;
  for (const auto& e : events)
    if (e.name == name) out.push_back(static_cast<double>(e.dur_ns) * 1e-6);
  return out;
}

void write_trace(const Args& args,
                 const std::vector<telemetry::TraceEvent>& events) {
  std::string path = args.out;
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".json") == 0)
    path.resize(path.size() - 5);
  telemetry::write_chrome_trace(path + ".trace.json", events);
}

void set_tail(Result& r, const std::string& prefix, std::vector<double> ms) {
  const Tail t = summarize(std::move(ms));
  r.set(prefix + ".p50", t.p50, "ms");
  r.set(prefix + ".tail", t.tail, "ms");
  r.set(prefix + ".n", static_cast<double>(t.n), "count");
}

void gate_against_previous_runs(
    const Args& args, const std::string& workload,
    const std::map<std::string, std::uint32_t>& digests) {
  const std::string path = args.cache_dir + "/digests_" + workload + ".txt";
  std::ifstream in(path);
  if (!in) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      for (const auto& [key, crc] : digests) out << key << ' ' << crc << '\n';
    }
    std::filesystem::rename(tmp, path);
    return;
  }
  std::map<std::string, std::uint32_t> previous;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string key;
    std::uint32_t crc = 0;
    if (ss >> key >> crc) previous[key] = crc;
  }
  for (const auto& [key, crc] : digests) {
    const auto it = previous.find(key);
    gate(it != previous.end() && it->second == crc,
         "chain CRC of " + key + " differs from an earlier run of this source tree");
  }
  gate(previous.size() == digests.size(),
       "an earlier run of this source tree recorded a different trial set");
}

}  // namespace perfbench
