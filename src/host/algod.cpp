#include "host/algod.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace fpgafu::host {

namespace {

/// Unit-cache key: image and code, separated by a byte no image name uses.
std::string cache_key(const std::string& image, isa::FunctionCode code) {
  return image + '\x1f' + std::to_string(static_cast<unsigned>(code));
}

}  // namespace

std::string LruPolicy::victim(const std::vector<std::string>& candidates) {
  check(!candidates.empty(), "lru: no eviction candidates");
  const std::string* best = &candidates.front();
  std::uint64_t best_use = std::numeric_limits<std::uint64_t>::max();
  for (const auto& c : candidates) {
    const auto it = last_use_.find(c);
    const std::uint64_t use = it == last_use_.end() ? 0 : it->second;
    if (use < best_use) {
      best_use = use;
      best = &c;
    }
  }
  return *best;
}

std::string CostAwarePolicy::victim(
    const std::vector<std::string>& candidates) {
  check(!candidates.empty(), "cost: no eviction candidates");
  const std::string* best = &candidates.front();
  std::uint64_t best_credit = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best_touch = std::numeric_limits<std::uint64_t>::max();
  for (const auto& c : candidates) {
    const auto it = entries_.find(c);
    const std::uint64_t credit = it == entries_.end() ? 0 : it->second.credit;
    const std::uint64_t touch = it == entries_.end() ? 0 : it->second.touch;
    // Minimum credit wins; at equal credit the older touch is evicted, so
    // equal-cost workloads order exactly like LRU.
    if (credit < best_credit ||
        (credit == best_credit && touch < best_touch)) {
      best_credit = credit;
      best_touch = touch;
      best = &c;
    }
  }
  return *best;
}

void FuLoader::start(std::uint64_t cycles) {
  check(remaining_ == 0,
        "fu_loader: a partial reconfiguration is already in progress (the "
        "model has one reconfiguration port)");
  remaining_ = cycles;
  wake();
}

FuManager::FuManager(Coprocessor& coproc, FuManagerConfig config)
    : coproc_(&coproc),
      config_(std::move(config)),
      loader_(coproc.system().simulator(), "fu_loader"),
      hits_(stats_.handle("algod.hits")),
      misses_(stats_.handle("algod.misses")),
      evictions_(stats_.handle("algod.evictions")),
      loads_(stats_.handle("algod.loads")),
      load_cycles_(stats_.handle("algod.load_cycles")),
      drain_cycles_(stats_.handle("algod.drain_cycles")) {
  check(config_.slots > 0, "FuManagerConfig::slots must be > 0");
  if (!config_.policy) {
    config_.policy = std::make_shared<LruPolicy>();
  }
}

void FuManager::register_image(AlgorithmImage image) {
  check(!image.name.empty(), "algod: image needs a name");
  check(!image.codes.empty(), "algod: image declares no function codes");
  check(static_cast<bool>(image.factory), "algod: image needs a factory");
  check(image.slot_cost() <= config_.slots,
        "algod: image '" + image.name + "' needs " +
            std::to_string(image.slot_cost()) + " slots but the budget is " +
            std::to_string(config_.slots));
  check(images_.count(image.name) == 0,
        "algod: image '" + image.name + "' already registered");
  auto& rtm = coproc_->system().rtm();
  for (const auto code : image.codes) {
    for (const auto& [other_name, other] : images_) {
      check(std::find(other.codes.begin(), other.codes.end(), code) ==
                other.codes.end(),
            "algod: function code already declared by image '" + other_name +
                "'");
    }
    check(!rtm.table().attached(code),
          "algod: function code is attached outside the manager");
    // From registration on, the code is *known*: instructions for it error
    // with the retryable kUnitUnavailable, not kUnknownFunction.
    coproc_->system().declare_unavailable(code);
  }
  const std::string name = image.name;
  images_.emplace(name, std::move(image));
  resident_[name] = false;
}

bool FuManager::resident(const std::string& name) const {
  const auto it = resident_.find(name);
  return it != resident_.end() && it->second;
}

std::vector<std::string> FuManager::resident_images() const {
  std::vector<std::string> out;
  for (const auto& [name, is_resident] : resident_) {
    if (is_resident) {
      out.push_back(name);
    }
  }
  return out;
}

std::uint64_t FuManager::swap_cost(
    const std::vector<std::string>& names) const {
  std::uint64_t cost = 0;
  for (const auto& name : names) {
    const auto it = images_.find(name);
    if (it == images_.end()) {
      throw SimError("algod: image '" + name + "' not registered");
    }
    if (!resident(name)) {
      cost += it->second.load_cycles;
    }
  }
  return cost;
}

void FuManager::ensure_resident(const std::string& name) {
  ensure_resident_all({name});
}

void FuManager::ensure_resident_all(const std::vector<std::string>& names) {
  std::vector<std::string> missing;
  std::size_t missing_cost = 0;
  for (const auto& name : names) {
    const auto it = images_.find(name);
    if (it == images_.end()) {
      throw SimError("algod: image '" + name + "' not registered");
    }
    if (resident(name)) {
      stats_.bump(hits_);
      config_.policy->on_hit(name, ++touch_tick_, it->second.load_cycles);
    } else if (std::find(missing.begin(), missing.end(), name) ==
               missing.end()) {
      missing.push_back(name);
      missing_cost += it->second.slot_cost();
    }
  }
  if (missing.empty()) {
    return;
  }
  if (missing_cost > config_.slots) {
    throw SimError("algod: request needs " + std::to_string(missing_cost) +
                   " free slots but the budget is " +
                   std::to_string(config_.slots));
  }
  make_room(missing_cost, names);
  for (const auto& name : missing) {
    stats_.bump(misses_);
    load(images_.at(name));
  }
}

void FuManager::make_room(std::size_t cost,
                          const std::vector<std::string>& protect) {
  while (config_.slots - slots_used_ < cost) {
    std::vector<std::string> candidates;
    for (const auto& [name, is_resident] : resident_) {
      if (is_resident && std::find(protect.begin(), protect.end(), name) ==
                             protect.end()) {
        candidates.push_back(name);
      }
    }
    check(!candidates.empty(),
          "algod: cannot make room — every resident image is part of the "
          "request (slot budget too small for the required set)");
    evict(config_.policy->victim(candidates));
  }
}

void FuManager::evict(const std::string& name) {
  AlgorithmImage& image = images_.at(name);
  auto& system = coproc_->system();
  for (const auto code : image.codes) {
    system.begin_detach(code);
  }
  // Drain: in-flight writes keep retiring through the arbiter; stalled or
  // new instructions for the codes become kUnitUnavailable responses.  In
  // the Farm path the transport window is already empty, so this usually
  // completes without stepping; under direct use it pumps until quiesced.
  const std::uint64_t spent = coproc_->pump().run_until(
      [&] {
        return std::all_of(image.codes.begin(), image.codes.end(),
                           [&](isa::FunctionCode code) {
                             return system.detach_drained(code);
                           });
      },
      Deadline(system.simulator(), kDefaultCallBudgetCycles),
      "algod: drain '" + name + "'");
  stats_.bump(drain_cycles_, spent);
  for (const auto code : image.codes) {
    system.finish_detach(code);
  }
  resident_[name] = false;
  slots_used_ -= image.slot_cost();
  stats_.bump(evictions_);
  config_.policy->on_evict(name);
}

void FuManager::load(AlgorithmImage& image) {
  auto& system = coproc_->system();
  // Charge the partial-reconfiguration latency on the simulated clock: the
  // loader stays busy for load_cycles, so the swap shows up in cycle
  // counts (and in a VCD dump) exactly where it happens.
  if (image.load_cycles > 0) {
    loader_.start(image.load_cycles);
    const std::uint64_t spent = coproc_->pump().run_until(
        [&] { return !loader_.busy(); },
        Deadline(system.simulator(), kDefaultCallBudgetCycles),
        "algod: load '" + image.name + "'");
    stats_.bump(load_cycles_, spent);
  }
  for (const auto code : image.codes) {
    const std::string key = cache_key(image.name, code);
    auto it = unit_cache_.find(key);
    if (it == unit_cache_.end()) {
      it = unit_cache_
               .emplace(key, image.factory(system.simulator(), code))
               .first;
      check(it->second != nullptr,
            "algod: factory for image '" + image.name + "' returned null");
    }
    system.attach(code, *it->second);
  }
  resident_[image.name] = true;
  slots_used_ += image.slot_cost();
  stats_.bump(loads_);
  config_.policy->on_load(image.name, ++touch_tick_, image.load_cycles);
}

}  // namespace fpgafu::host
