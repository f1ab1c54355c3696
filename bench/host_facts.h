// Host facts every checked-in BENCH_*.json records next to its numbers:
// core count, the crypto-relevant CPU flags and the build type, so a
// baseline is never compared against a run on different silicon without
// the difference showing.
#pragma once

#include <fstream>
#include <string>
#include <thread>

#ifndef OMADRM_BUILD_TYPE
#define OMADRM_BUILD_TYPE "unknown"
#endif

namespace omadrm::bench {

// The crypto-relevant CPU flags of this host, as a JSON string array.
inline std::string cpu_flags_json() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string flags;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) {
      flags = " " + line.substr(line.find(':') + 1) + " ";
      break;
    }
  }
  std::string out = "[";
  for (const char* f :
       {"aes", "sha_ni", "ssse3", "sse4_1", "avx2", "adx", "bmi2", "avx512f",
        "avx512vl", "avx512ifma", "vaes"}) {
    if (flags.find(std::string(" ") + f + " ") == std::string::npos) continue;
    if (out.size() > 1) out += ", ";
    out += std::string("\"") + f + "\"";
  }
  return out + "]";
}

// {"nproc": ..., "cpu_flags": [...], "build_type": "..."}
inline std::string host_json() {
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_flags\": " + cpu_flags_json() + ", \"build_type\": \"" +
         OMADRM_BUILD_TYPE + "\"}";
}

}  // namespace omadrm::bench
