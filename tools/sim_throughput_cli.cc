// Single-configuration engine-throughput runs, for profiling the simulator
// itself (e.g. under `perf record`) without the bench's fixed 1/2/4/8 sweep.
//
//   sim_throughput_cli --workers=8 --ops=1000000 --theta=0.99
//   sim_throughput_cli --workers=8 --quantum=20000 --digest
//   sim_throughput_cli --workers=1 --sequential --digest
//
// Prints one human-readable line; --json=PATH additionally writes the run
// as a JSON object. The replay runs on the fiber scheduler (sliced) unless
// --sequential is given; either way it is deterministic, and --digest
// prints the machine end-state digest (the determinism-guard value).
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"
#include "src/sim/scheduler.h"
#include "src/util/cli.h"

using namespace prestore;

namespace {

void PrintUsage() {
  std::printf(
      "sim_throughput_cli: replay a generated YCSB-like trace against the\n"
      "simulation engine and report host-side throughput.\n"
      "\n"
      "Workload:\n"
      "  --workers=N          simulated cores / trace streams (default 4)\n"
      "  --ops=N              line-granular accesses per worker (400000)\n"
      "  --keys=N             private value blocks per worker (4096)\n"
      "  --shared-keys=N      value blocks shared by all workers (1024)\n"
      "  --shared-fraction=F  fraction of ops against shared keys (0.125)\n"
      "  --value-size=N       bytes per value block (256)\n"
      "  --read-ratio=F       read fraction of the mix (0.5)\n"
      "  --theta=F            zipfian skew; 0 = uniform integer-only (0.99)\n"
      "  --clean-period=N     every Nth put ends with a clean pre-store (8)\n"
      "  --miss-mix=F         target LLC-miss fraction of the private-key\n"
      "                       stream: 0 = hot L1-resident head only, 1 =\n"
      "                       cold LLC-busting tail only (default: off —\n"
      "                       the classic uniform/zipfian key stream)\n"
      "  --seed=N             trace seed (42)\n"
      "  --machine=A|B-fast|B-slow  machine preset (A)\n"
      "\n"
      "Execution mode (default: sliced — each worker a fiber on the\n"
      "deterministic scheduler, fixed-quantum rounds):\n"
      "  --quantum=N          simulated cycles per scheduler round (default\n"
      "                       1500, the device meters' skew window; must be\n"
      "                       > 0 — rejected by SchedulerConfig::Validate)\n"
      "  --sequential         run each worker to completion in worker order\n"
      "  --digest             print the machine end-state digest\n"
      "\n"
      "Output:\n"
      "  --json=PATH          also write the run as a JSON object\n"
      "  --help               this text\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  const auto unknown = flags.UnknownFlags(
      {"workers", "ops", "keys", "shared-keys", "shared-fraction",
       "value-size", "read-ratio", "theta", "clean-period", "miss-mix",
       "seed", "machine", "quantum", "sequential", "digest", "json"});
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    }
    std::fprintf(stderr, "run with --help for the flag list\n");
    return 1;
  }
  const std::optional<std::string> preset =
      flags.GetChoice("machine", "A", kMachinePresetNames);
  if (!preset) {
    return 1;
  }
  ReplayTraceConfig cfg;
  cfg.workers = static_cast<uint32_t>(flags.GetInt("workers", 4));
  cfg.ops_per_worker = flags.GetInt("ops", 400000);
  cfg.keys_per_worker = flags.GetInt("keys", 4096);
  cfg.shared_keys = flags.GetInt("shared-keys", 1024);
  cfg.shared_fraction = flags.GetDouble("shared-fraction", 0.125);
  cfg.value_size = static_cast<uint32_t>(flags.GetInt("value-size", 256));
  cfg.read_ratio = flags.GetDouble("read-ratio", 0.5);
  cfg.zipf_theta = flags.GetDouble("theta", 0.99);
  cfg.clean_period = static_cast<uint32_t>(flags.GetInt("clean-period", 8));
  cfg.miss_mix = flags.GetDouble("miss-mix", -1.0);
  cfg.seed = flags.GetInt("seed", 42);

  const bool sequential = flags.GetBool("sequential", false);
  ReplaySlicedOptions sliced_options;
  sliced_options.quantum = flags.GetInt("quantum", BandwidthMeter::kWindow);
  if (!sequential) {
    // Fail fast on an invalid scheduler configuration (quantum=0) with the
    // validator's own message, before the trace is generated.
    SchedulerConfig check;
    check.quantum = sliced_options.quantum;
    try {
      check.Validate();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid scheduler flags: %s\n", e.what());
      return 1;
    }
  }

  const MachineConfig mc = *MachinePresetNamed(*preset, cfg.workers);
  Machine machine(mc);
  const ReplayTrace trace = GenerateReplayTrace(machine, cfg);
  const ReplayResult result = sequential
                                  ? ReplaySequential(machine, trace)
                                  : ReplaySliced(machine, trace, sliced_options);
  const char* mode = sequential ? "sequential" : "sliced";

  std::printf(
      "machine=%s workers=%u mode=%s accesses=%llu host_sec=%.3f"
      " accesses/sec=%.0f sim_Mcycles=%.1f llc_hits=%llu llc_misses=%llu\n",
      mc.name.c_str(), cfg.workers, mode,
      static_cast<unsigned long long>(result.accesses), result.host_seconds,
      result.accesses_per_sec,
      static_cast<double>(result.sim_cycles) / 1e6,
      static_cast<unsigned long long>(result.hierarchy.llc_hits),
      static_cast<unsigned long long>(result.hierarchy.llc_misses));
  if (flags.GetBool("digest", false)) {
    std::printf("digest=%016llx\n",
                static_cast<unsigned long long>(
                    DigestMachine(machine, cfg.workers)));
  }

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\"machine\": \"%s\", \"workers\": %u, \"mode\": \"%s\","
        " \"quantum\": %llu,"
        " \"accesses\": %llu, \"host_seconds\": %.6f,"
        " \"accesses_per_sec\": %.0f, \"sim_cycles\": %llu}\n",
        mc.name.c_str(), cfg.workers, mode,
        static_cast<unsigned long long>(sequential ? 0
                                                   : sliced_options.quantum),
        static_cast<unsigned long long>(result.accesses),
        result.host_seconds, result.accesses_per_sec,
        static_cast<unsigned long long>(result.sim_cycles));
    std::fclose(out);
  }
  return 0;
}
