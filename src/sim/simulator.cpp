#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "sim/component.hpp"
#include "sim/signal.hpp"

namespace fpgafu::sim {

namespace {

Simulator::Kernel default_kernel() {
  // Cached: getenv once per process.  `FPGAFU_KERNEL` lets CI run the whole
  // suite under a non-default kernel without touching every test.
  static const Simulator::Kernel kernel =
      Simulator::kernel_from_env(std::getenv("FPGAFU_KERNEL"));
  return kernel;
}

}  // namespace

const char* Simulator::kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kBruteForce: return "brute";
    case Kernel::kSensitivity: return "sensitivity";
    case Kernel::kEvent: return "event";
  }
  return "?";
}

Simulator::Kernel Simulator::parse_kernel(std::string_view name) {
  for (const Kernel k : kAllKernels) {
    if (name == kernel_name(k)) {
      return k;
    }
  }
  throw SimError("unknown settle kernel '" + std::string(name) +
                 "' (expected brute, sensitivity or event)");
}

Simulator::Kernel Simulator::kernel_from_env(const char* value) {
  if (value == nullptr) {
    return Kernel::kSensitivity;
  }
  try {
    return parse_kernel(value);
  } catch (const SimError& e) {
    // Re-raise with the variable named, so a typo'd CI line fails with a
    // diagnosis instead of silently running the default kernel.
    throw SimError("FPGAFU_KERNEL: " + std::string(e.what()));
  }
}

Simulator::Simulator() : kernel_(default_kernel()) {}

void Simulator::add(Component& component) {
  component.order_ = next_order_++;
  components_.push_back(&component);
  // A freshly constructed component has never run: wake it and arm its
  // commit so the event kernel evaluates and commits it at least once.
  wake(component);
}

void Simulator::remove(Component& component) {
  components_.erase(
      std::remove(components_.begin(), components_.end(), &component),
      components_.end());
  // The component may sit in the dirty queue, the cross-cycle wake/commit
  // sets, and on sensitivity lists of wires it does not own; purge all so no
  // dangling pointer survives it.
  queue_.erase(std::remove(queue_.begin(), queue_.end(), &component),
               queue_.end());
  wake_set_.erase(std::remove(wake_set_.begin(), wake_set_.end(), &component),
                  wake_set_.end());
  commit_set_.erase(
      std::remove(commit_set_.begin(), commit_set_.end(), &component),
      commit_set_.end());
  commit_work_.erase(
      std::remove(commit_work_.begin(), commit_work_.end(), &component),
      commit_work_.end());
  for (WireBase* w : wires_) {
    w->readers_.erase(
        std::remove(w->readers_.begin(), w->readers_.end(), &component),
        w->readers_.end());
  }
}

void Simulator::register_wire(WireBase& wire) { wires_.push_back(&wire); }

void Simulator::unregister_wire(WireBase& wire) {
  // Readers hold this wire in their O(1) membership sets; drop it there too
  // so a later wire at the same address cannot alias a stale subscription.
  for (Component* reader : wire.readers_) {
    reader->subscribed_.erase(&wire);
  }
  wires_.erase(std::remove(wires_.begin(), wires_.end(), &wire), wires_.end());
}

void Simulator::enqueue(Component& component) {
  if (!component.queued_) {
    component.queued_ = true;
    queue_.push_back(&component);
  }
}

void Simulator::clear_queue() {
  for (Component* c : queue_) {
    c->queued_ = false;
  }
  queue_.clear();
  requeue_all_ = false;
}

void Simulator::arm_commit(Component& component) {
  if (!component.commit_armed_) {
    component.commit_armed_ = true;
    commit_set_.push_back(&component);
  }
}

void Simulator::wake(Component& component) {
  if (settling_) {
    // Mid-settle: fold the component into the current fixed-point search.
    enqueue(component);
  } else if (!component.woken_) {
    component.woken_ = true;
    wake_set_.push_back(&component);
  }
  arm_commit(component);
}

void Simulator::wake_all() {
  for (Component* c : components_) {
    wake(*c);
  }
}

void Simulator::wire_changed(WireBase& wire) {
  changed_ = true;
  if (kernel_ == Kernel::kSensitivity) {
    for (Component* reader : wire.readers_) {
      enqueue(*reader);
    }
  } else if (kernel_ == Kernel::kEvent) {
    // Re-schedule the readers' evals (into the running settle if we are
    // inside one, next cycle's wake set otherwise) and re-promote their
    // commits: a recorded input changed, so a demoted commit may now act.
    for (Component* reader : wire.readers_) {
      wake(*reader);
    }
  }
}

void Simulator::note_change() {
  changed_ = true;
  requeue_all_ = true;
  if (kernel_ == Kernel::kEvent) {
    // Untracked change: conservatively wake + commit-arm everything.  Inside
    // a settle, requeue_all_ already forces a full eval pass; the wake_all()
    // covers the commit set (and, between cycles, the next first pass).
    wake_all();
  }
}

void Simulator::set_kernel(Kernel kernel) {
  kernel_ = kernel;
  // The event kernel must never inherit a quiet set built by another kernel
  // (which does not maintain one): start from everything-active.
  wake_all();
}

void Simulator::reset() {
  for (Component* c : components_) {
    c->reset();
  }
  cycle_ = 0;
  ++reset_generation_;
  max_settle_ = 0;
  // Drop dirty state so a stray Wire::set between reset() and the first
  // step() cannot leak a stale flag or queue entry into the first settle.
  changed_ = false;
  clear_queue();
  // Drop all cross-cycle activity state and rebuild it as everything-active:
  // after a reset the event kernel must re-observe the whole design.
  wake_set_.clear();
  commit_set_.clear();
  for (Component* c : components_) {
    c->woken_ = false;
    c->commit_armed_ = false;
  }
  wake_all();
}

void Simulator::run_eval(Component& component) {
  reading_ = &component;
  ++sub_epoch_;
  component.eval();
  ++evals_;
}

/// Sensitivity-scheduled settle: pass 1 evaluates every component (their
/// registered state may have changed at the previous commit, which the wire
/// tracker cannot see); every further pass drains only the components whose
/// recorded input wires changed in the pass before.  All kernels count a
/// pass the same way, so `settle_limit_` and `max_settle_iterations()` keep
/// their meaning, and a combinational loop keeps re-queueing its components
/// until the limit trips exactly as the brute-force kernel would.
void Simulator::settle_sensitivity() {
  // Stray dirty state from between cycles (direct Wire::set by a test or
  // host) is fully absorbed by the full first pass.
  clear_queue();
  settling_ = true;
  unsigned iterations = 1;
  changed_ = false;
  for (Component* c : components_) {
    run_eval(*c);
  }
  reading_ = nullptr;
  drain_dirty_queue(iterations);
  settling_ = false;
  max_settle_ = std::max(max_settle_, iterations);
}

void Simulator::settle_brute_force() {
  unsigned iterations = 0;
  do {
    changed_ = false;
    for (Component* c : components_) {
      c->eval();
      ++evals_;
    }
    ++iterations;
    if (iterations > settle_limit_) {
      throw SimError("combinational loop: signals did not settle within " +
                     std::to_string(settle_limit_) + " iterations");
    }
  } while (changed_);
  max_settle_ = std::max(max_settle_, iterations);
}

/// Event-driven settle: the first pass evaluates only the cross-cycle wake
/// set — components woken by a wire change since the previous settle, an
/// explicit wake(), a commit that reported activity, or reset()/add().
/// Subsequent passes are the same dirty-queue drain as settle_sensitivity.
/// Sound by the same induction as the sensitivity kernel, extended across
/// the clock edge: a quiet component's eval() output can only change after
/// one of its recorded inputs changes or its own registered state changes
/// (which its previous commit reported as activity) — and each such event
/// wakes it.
void Simulator::settle_event() {
  clear_queue();
  settling_ = true;
  unsigned iterations = 1;
  changed_ = false;
  work_.clear();
  work_.swap(wake_set_);
  for (Component* c : work_) {
    c->woken_ = false;
  }
  for (Component* c : work_) {
    run_eval(*c);
  }
  reading_ = nullptr;
  drain_dirty_queue(iterations);
  settling_ = false;
  max_settle_ = std::max(max_settle_, iterations);
}

/// Shared fixed-point tail of the scheduled kernels (every pass after the
/// first under kSensitivity and kEvent): drain the dirty queue until nothing
/// re-queues, counting passes against settle_limit_.  On the
/// combinational-loop throw a recoverable scheduler state is left behind
/// (everything woken), so the caller may raise the limit and continue
/// stepping.
void Simulator::drain_dirty_queue(unsigned& iterations) {
  while (!queue_.empty() || requeue_all_) {
    if (++iterations > settle_limit_) {
      clear_queue();
      settling_ = false;
      wake_all();
      throw SimError("combinational loop: signals did not settle within " +
                     std::to_string(settle_limit_) + " iterations");
    }
    const bool evaluate_all = requeue_all_;
    requeue_all_ = false;
    changed_ = false;
    if (evaluate_all) {
      // An untracked note_change(): fall back to a full pass.
      clear_queue();
      for (Component* c : components_) {
        run_eval(*c);
      }
    } else {
      work_.clear();
      work_.swap(queue_);
      for (Component* c : work_) {
        c->queued_ = false;
      }
      for (Component* c : work_) {
        run_eval(*c);
      }
    }
    reading_ = nullptr;
  }
}

void Simulator::step() {
  // Thread-affinity contract (see the class comment): only the owning
  // thread may advance the clock.  host::Farm satisfies this by
  // constructing each shard's System on its worker thread.
  assert(std::this_thread::get_id() == owner_ &&
         "sim::Simulator is thread-affine: step() called off the owner "
         "thread (construct the System on the thread that drives it, or "
         "rebind_owner() at a quiescent hand-off)");
  switch (kernel_) {
    case Kernel::kSensitivity:
      settle_sensitivity();
      break;
    case Kernel::kBruteForce:
      settle_brute_force();
      break;
    case Kernel::kEvent:
      settle_event();
      break;
  }
  if (kernel_ == Kernel::kEvent) {
    commit_scheduled();
  } else {
    for (Component* c : components_) {
      c->commit();
    }
  }
  ++cycle_;
}

/// Commit phase of the event kernel: run only armed commits.  Each component is provisionally demoted; it
/// stays in the (fresh) commit set only if its commit reported activity
/// (bound Reg change or mark_active(), both of which wake()), a wire it
/// read gets changed later, someone wakes it, or it opted out of demotion.
/// Commit-time wire reads are recorded (recording_reader()) so conditional
/// commit read sets stay conservative, exactly like eval sensitivities.
void Simulator::commit_scheduled() {
  commit_work_.clear();
  commit_work_.swap(commit_set_);
  // Registration order, so the armed subsequence commits in exactly the
  // order the full-commit kernels would (skipped components are by
  // definition unchanged): probes reading non-wire state mid-commit see
  // kernel-independent values.
  std::sort(commit_work_.begin(), commit_work_.end(),
            [](const Component* a, const Component* b) {
              return a->order_ < b->order_;
            });
  for (Component* c : commit_work_) {
    c->commit_armed_ = false;
    committing_ = c;
    ++sub_epoch_;
    c->commit();
    if (c->always_active_) {
      wake(*c);
    }
  }
  committing_ = nullptr;
}

void Simulator::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    step();
  }
}

std::uint64_t Simulator::run_until(const std::function<bool()>& done,
                                   std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (done()) {
      return i;
    }
    step();
  }
  if (done()) {
    return max_cycles;
  }
  throw SimError("watchdog: condition not reached within " +
                 std::to_string(max_cycles) + " cycles");
}

}  // namespace fpgafu::sim
