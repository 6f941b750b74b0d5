#include "src/sim/scheduler.h"

#include <sys/mman.h>
#include <ucontext.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#define PRESTORE_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRESTORE_ASAN_FIBERS 1
#endif
#endif
#ifdef PRESTORE_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace prestore {

namespace {

// Fiber stacks are reserved like thread stacks: 8 MiB of address space,
// committed page by page as the body touches it, above a guard page.
constexpr size_t kStackBytes = size_t{8} << 20;
constexpr size_t kGuardBytes = 4096;

// The scheduler running on this host thread (Core::EndSlice reaches the
// current fiber through it).
thread_local SimScheduler* t_running = nullptr;

// AddressSanitizer must see every stack switch, or it reports accesses to
// the other stack as overflows. No-ops in other builds.
void StartSwitch(void** fake_stack_save, const void* bottom, size_t size) {
#ifdef PRESTORE_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

void FinishSwitch(void* fake_stack_save, const void** bottom_old,
                  size_t* size_old) {
#ifdef PRESTORE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save;
  (void)bottom_old;
  (void)size_old;
#endif
}

}  // namespace

struct SimScheduler::MainContext {
  ucontext_t ctx;
  // The calling thread's stack, as ASan reports it on the first switch.
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
  void* fake_stack = nullptr;
};

struct SimScheduler::Fiber {
  Core* home = nullptr;
  std::function<void()> body;
  ucontext_t ctx;
  void* mapping = nullptr;  // guard page, then the stack
  void* fake_stack = nullptr;
  bool done = false;
  std::exception_ptr error;

  char* stack() const { return static_cast<char*>(mapping) + kGuardBytes; }
  ~Fiber() {
    if (mapping != nullptr) {
#ifdef PRESTORE_ASAN_FIBERS
      // A finished fiber never returns from its last frames, so ASan's
      // poison on their redzones outlives the stack. Clear it, or the next
      // mapping at this address (a machine's HostRegion) inherits it.
      __asan_unpoison_memory_region(stack(), kStackBytes);
#endif
      munmap(mapping, kGuardBytes + kStackBytes);
    }
  }
};

void SchedulerConfig::Validate() const {
  if (quantum == 0) {
    throw std::invalid_argument(
        "scheduler: quantum must be > 0 simulated cycles");
  }
}

SimScheduler::SimScheduler(const SchedulerConfig& config)
    : config_(config), main_(std::make_unique<MainContext>()) {
  config_.Validate();
}

SimScheduler::~SimScheduler() = default;

void SimScheduler::AddMachine(Machine& machine) {
  machines_.push_back(&machine);
}

void SimScheduler::Spawn(Core* home, std::function<void()> body) {
  auto fiber = std::make_unique<Fiber>();
  fiber->home = home;
  fiber->body = std::move(body);
  void* mapping = mmap(nullptr, kGuardBytes + kStackBytes,
                       PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                       -1, 0);
  if (mapping == MAP_FAILED) {
    throw std::bad_alloc();
  }
  fiber->mapping = mapping;
  mprotect(mapping, kGuardBytes, PROT_NONE);
  getcontext(&fiber->ctx);
  fiber->ctx.uc_stack.ss_sp = fiber->stack();
  fiber->ctx.uc_stack.ss_size = kStackBytes;
  fiber->ctx.uc_link = nullptr;
  makecontext(&fiber->ctx, &SimScheduler::FiberEntry, 0);
  fibers_.push_back(std::move(fiber));
}

void SimScheduler::FiberEntry() {
  SimScheduler* s = t_running;
  Fiber* f = s->current_;
  FinishSwitch(nullptr, &s->main_->stack_bottom, &s->main_->stack_size);
  try {
    f->body();
  } catch (...) {
    f->error = std::current_exception();
  }
  f->done = true;
  s->Yield();  // a finished fiber is never resumed
}

void SimScheduler::Resume(Fiber& fiber) {
  current_ = &fiber;
  StartSwitch(&main_->fake_stack, fiber.stack(), kStackBytes);
  swapcontext(&main_->ctx, &fiber.ctx);
  FinishSwitch(main_->fake_stack, nullptr, nullptr);
  current_ = nullptr;
}

void SimScheduler::Yield() {
  Fiber& fiber = *current_;
  StartSwitch(fiber.done ? nullptr : &fiber.fake_stack, main_->stack_bottom,
              main_->stack_size);
  swapcontext(&fiber.ctx, &main_->ctx);
  FinishSwitch(fiber.fake_stack, nullptr, nullptr);
}

void SimScheduler::YieldCurrent() {
  SimScheduler* s = t_running;
  if (s != nullptr && s->current_ != nullptr) {
    s->Yield();
  }
}

uint64_t SimScheduler::ClockSum() const {
  uint64_t sum = 0;
  for (Machine* m : machines_) {
    for (uint32_t c = 0; c < m->num_cores(); ++c) {
      sum += m->core(c).now() + m->core(c).PublishedNow();
    }
  }
  return sum;
}

void SimScheduler::AbortDeadlock(uint64_t round) const {
  std::fprintf(stderr,
               "SimScheduler deadlock: round %llu resumed every live fiber, "
               "but no core clock moved and no fiber finished; aborting.\n"
               "Core clocks:\n",
               static_cast<unsigned long long>(round));
  for (size_t m = 0; m < machines_.size(); ++m) {
    for (uint32_t c = 0; c < machines_[m]->num_cores(); ++c) {
      std::fprintf(stderr, "  machine %zu core %u: now=%llu\n", m, c,
                   static_cast<unsigned long long>(
                       machines_[m]->core(c).now()));
    }
  }
  std::abort();
}

void SimScheduler::Run(uint64_t start) {
  if (t_running != nullptr) {
    throw std::logic_error("SimScheduler::Run called inside a running fiber");
  }
  t_running = this;
  size_t live = fibers_.size();
  std::exception_ptr first_error;
  uint64_t round = 0;
  while (live > 0) {
    const uint64_t deadline = start + (round + 1) * config_.quantum;
    // With one fiber left nobody runs between its slices, so they need
    // not end at round deadlines.
    const uint64_t slice_deadline = live > 1 ? deadline : UINT64_MAX;
    for (Machine* m : machines_) {
      for (uint32_t c = 0; c < m->num_cores(); ++c) {
        m->core(c).slice_deadline_ = slice_deadline;
      }
    }
    const uint64_t clocks_before = ClockSum();
    bool resumed = false;
    bool finished = false;
    uint64_t next_eligible = UINT64_MAX;  // earliest skipped home clock
    for (const std::unique_ptr<Fiber>& f : fibers_) {
      if (f->done) {
        continue;
      }
      if (f->home != nullptr && f->home->now() >= deadline) {
        next_eligible = std::min(next_eligible, f->home->now());
        continue;
      }
      resumed = true;
      Resume(*f);
      if (f->done) {
        --live;
        finished = true;
        if (f->error != nullptr && first_error == nullptr) {
          first_error = f->error;
        }
      }
    }
    if (!resumed) {
      // Nothing ran, so every round before the first skipped fiber becomes
      // eligible would be empty too.
      round = (next_eligible - start) / config_.quantum;
      continue;
    }
    if (!finished && next_eligible == UINT64_MAX &&
        ClockSum() == clocks_before) {
      AbortDeadlock(round);
    }
    ++round;
  }
  for (Machine* m : machines_) {
    for (uint32_t c = 0; c < m->num_cores(); ++c) {
      m->core(c).slice_deadline_ = UINT64_MAX;
    }
  }
  t_running = nullptr;
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace prestore
