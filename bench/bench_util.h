// Shared plumbing for the paper-reproduction bench harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace rowpress::bench {

/// Number of attack repetitions (the paper averages 3 runs).  Override with
/// RP_SEEDS=n; RP_QUICK=1 forces 1.
inline int num_seeds() {
  if (const char* quick = std::getenv("RP_QUICK"); quick && quick[0] == '1')
    return 1;
  if (const char* s = std::getenv("RP_SEEDS")) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return 3;
}

/// Directory for cached trained models / profiles (override: RP_CACHE_DIR).
inline std::string cache_dir() {
  if (const char* s = std::getenv("RP_CACHE_DIR")) return s;
  return "artifacts";
}

/// Campaign worker count (override: RP_WORKERS).  0 lets the runtime use
/// one worker per hardware thread.
inline int num_workers() {
  if (const char* s = std::getenv("RP_WORKERS")) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return 0;
}

/// Campaign journal directory for the paper-reproduction benches.
inline std::string journal_dir() { return cache_dir() + "/campaigns"; }

/// Source revision a BENCH_*.json is attributed to: RP_COMMIT when set,
/// else `git rev-parse HEAD` of the working directory's checkout, with
/// "-dirty" appended when tracked files differ from HEAD.  Empty when
/// neither is available — callers refuse to write an unattributed result
/// rather than stamping a placeholder.
inline std::string source_commit() {
  if (const char* env = std::getenv("RP_COMMIT"); env && env[0] != '\0')
    return env;
  std::string out;
  if (std::FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    if (pclose(p) != 0) out.clear();
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  if (!out.empty() && std::system("git diff --quiet HEAD -- 2>/dev/null") != 0)
    out += "-dirty";
  return out;
}

}  // namespace rowpress::bench
