// dirtbuster — command-line front end: run any built-in workload under the
// DirtBuster two-pass analysis and print the paper-format report.
//
// Usage:
//   dirtbuster --workload=<name> [--machine=A|B-fast|B-slow]
//
// Workloads: mg ft sp bt ua is cg ep lu (NAS), clht masstree (YCSB A),
//            tensor (CNN training proxy), x9 (message passing),
//            stream-read ray-trace compress (read-mostly proxies).
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/dirtbuster/dirtbuster.h"
#include "src/kv/clht.h"
#include "src/kv/masstree.h"
#include "src/kv/ycsb.h"
#include "src/msg/x9.h"
#include "src/nas/nas_common.h"
#include "src/proxy/proxies.h"
#include "src/sim/machine.h"
#include "src/tensor/training.h"
#include "src/util/cli.h"

using namespace prestore;

namespace {

constexpr std::string_view kWorkloadNames =
    "mg|ft|sp|bt|ua|is|cg|ep|lu|clht|masstree|tensor|x9|stream-read|"
    "ray-trace|compress";

int Usage(std::FILE* out, int code) {
  std::fprintf(
      out,
      "usage: dirtbuster --workload=<name> [--machine=A|B-fast|B-slow]\n"
      "workloads: mg ft sp bt ua is cg ep lu | clht masstree | tensor | x9\n"
      "           | stream-read ray-trace compress\n"
      "flags:\n"
      "  --workload=NAME  the workload to analyse (required)\n"
      "  --machine=NAME   machine preset: A (default), B-fast, B-slow\n"
      "  --help           this text\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    return Usage(stdout, 0);
  }
  const auto unknown = flags.UnknownFlags({"workload", "machine"});
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    }
    std::fprintf(stderr, "run with --help for the flag list\n");
    return 1;
  }
  const std::string workload = flags.GetString("workload", "");
  if (workload.empty()) {
    return Usage(stderr, 2);
  }
  const std::optional<std::string> preset =
      flags.GetChoice("machine", "A", kMachinePresetNames);
  if (!preset) {
    return 1;
  }
  Machine machine(*MachinePresetNamed(*preset, 2));

  // Build the workload body; objects must outlive the two analysis passes.
  std::function<void()> body;
  std::unique_ptr<NasKernel> nas;
  std::unique_ptr<ClhtMap> clht;
  std::unique_ptr<Masstree> masstree;
  std::unique_ptr<CnnTrainingProxy> tensor;
  std::unique_ptr<X9Inbox> inbox;
  std::unique_ptr<ProxyWorkload> proxy;
  YcsbConfig ycsb;

  if ((nas = MakeNasKernel(workload, machine, NasPrestore::kOff))) {
    body = [&] { nas->Run(machine.core(0)); };
  } else if (workload == "clht" || workload == "masstree") {
    ycsb.num_keys = 3000;
    ycsb.value_size = 512;
    ycsb.threads = 2;
    ycsb.ops_per_thread = 500;
    KvStore* store = nullptr;
    if (workload == "clht") {
      clht = std::make_unique<ClhtMap>(machine, 8192);
      store = clht.get();
    } else {
      masstree = std::make_unique<Masstree>(machine);
      store = masstree.get();
    }
    YcsbLoad(machine, *store, ycsb);
    body = [&machine, store, &ycsb] { YcsbRun(machine, *store, ycsb); };
  } else if (workload == "tensor") {
    TrainingConfig cfg;
    cfg.batch_size = 8;
    cfg.features = 4096;
    tensor = std::make_unique<CnnTrainingProxy>(machine, cfg);
    body = [&] { tensor->Step(machine.core(0)); };
  } else if (workload == "x9") {
    inbox = std::make_unique<X9Inbox>(machine, 64, 512);
    body = [&] {
      Core& core = machine.core(0);
      char drain[512];
      for (int i = 0; i < 3000; ++i) {
        (void)inbox->TryWriteStamped(core, i, MsgPrestore::kOff);
        (void)inbox->TryRead(core, drain);
      }
    };
  } else {
    for (auto& p : MakeAllProxies(machine)) {
      if (workload == p->name()) {
        proxy = std::move(p);
        break;
      }
    }
    if (proxy == nullptr) {
      CliFlags::RejectValue("workload", workload, kWorkloadNames);
      return 1;
    }
    body = [&] { proxy->Run(machine.core(0)); };
  }

  DirtBuster dirtbuster(machine);
  const DirtBusterReport report = dirtbuster.Analyze(body);
  std::printf("workload: %s on %s\n%s", workload.c_str(),
              machine.config().name.c_str(), report.ToString().c_str());
  if (report.write_intensive) {
    std::printf("\noverall advice: %s\n",
                std::string(ToString(report.OverallAdvice())).c_str());
  }
  return 0;
}
