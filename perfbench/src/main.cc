// perfbench — the turbdb benchmark's measuring program.
//
//   perfbench --workload cold_sweep|hot_explore|service_mix
//             --seed N --seconds S --trace 0|1
//             [--data-seed N] [--work-dir D] [--out-dir D]
//             [--node-binary PATH]
//
// Prints human-readable metric lines and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// perfbench/run.py builds this program and runs it; see perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "cold_sweep|hot_explore|service_mix --seed N --seconds S "
               "--trace 0|1 [--data-seed N] [--work-dir D] [--out-dir D] "
               "[--node-binary PATH]\n");
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.node_binary = PERFBENCH_NODE_BINARY;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      args.seed = number;
    } else if (flag == "--data-seed" && ParseUnsigned(value, &number)) {
      args.data_seed = number;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0)) {
        Usage();
        return 2;
      }
      have_seconds = true;
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      args.trace = number == 1;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--node-binary") {
      args.node_binary = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (args.workload.empty() || !have_seconds) {
    Usage();
    return 2;
  }
  if (args.work_dir.empty()) {
    args.work_dir = (std::filesystem::temp_directory_path() /
                     ("perfbench-" + std::to_string(::getpid())))
                        .string();
  }
  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
  }

  if (args.workload == "cold_sweep") return perfbench::RunColdSweep(args);
  if (args.workload == "hot_explore") return perfbench::RunHotExplore(args);
  if (args.workload == "service_mix") return perfbench::RunServiceMix(args);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  Usage();
  return 2;
}
