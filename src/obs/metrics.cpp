#include "metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace edgehd::obs {

// ---- shards ----------------------------------------------------------------

struct MetricsRegistry::Shard {
  explicit Shard(std::size_t n)
      : slots(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {
    for (std::size_t i = 0; i < n; ++i) {
      slots[i].store(0, std::memory_order_relaxed);
    }
  }
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
};

namespace {

std::atomic<std::uint64_t> g_next_registry_id{1};

/// Registries alive right now, by id. Leaked on purpose: threads may exit,
/// and retire their shards, during static destruction.
struct LiveRegistries {
  std::mutex mu;
  std::map<std::uint64_t, MetricsRegistry*> by_id;
};

LiveRegistries& live_registries() {
  static auto* live = new LiveRegistries;
  return *live;
}

/// Set once the calling thread's ThreadShards is destroyed; a thread-local
/// destructor that runs later and writes a metric must not touch it.
thread_local bool t_shards_retired = false;

}  // namespace

/// One entry per registry the thread has written to. The registry id is
/// process-unique and never reused, so an entry for a destroyed registry can
/// never be mistaken for a live one — it just stops matching and its
/// dangling pointer is never dereferenced.
struct MetricsRegistry::ThreadShards {
  struct Ref {
    std::uint64_t reg_id;
    std::atomic<std::uint64_t>* slots;
  };
  std::vector<Ref> refs;

  ThreadShards() = default;
  ThreadShards(const ThreadShards&) = delete;
  ThreadShards& operator=(const ThreadShards&) = delete;
  ~ThreadShards() {
    t_shards_retired = true;
    LiveRegistries& live = live_registries();
    // Held across the retirements so no registry is destroyed mid-fold.
    std::lock_guard<std::mutex> lk(live.mu);
    for (const Ref& r : refs) {
      if (auto it = live.by_id.find(r.reg_id); it != live.by_id.end()) {
        it->second->retire_shard(r.slots);
      }
    }
  }

  static ThreadShards& mine() {
    thread_local ThreadShards shards;
    return shards;
  }
};

std::atomic<std::uint64_t>* MetricsRegistry::my_slots() {
  if (t_shards_retired) return retired_slots();
  for (const ThreadShards::Ref& e : ThreadShards::mine().refs) {
    if (e.reg_id == id_) return e.slots;
  }
  return register_shard();
}

std::atomic<std::uint64_t>* MetricsRegistry::register_shard() {
  auto shard = std::make_unique<Shard>(slot_capacity_);
  std::atomic<std::uint64_t>* slots = shard->slots.get();
  {
    std::lock_guard<std::mutex> lk(mu_);
    shards_.push_back(std::move(shard));
  }
  ThreadShards::mine().refs.push_back(ThreadShards::Ref{id_, slots});
  return slots;
}

void MetricsRegistry::retire_shard(const std::atomic<std::uint64_t>* slots) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = std::find_if(
      shards_.begin(), shards_.end(),
      [slots](const auto& sh) { return sh->slots.get() == slots; });
  if (it == shards_.end()) return;
  if (retired_ == nullptr) {
    // The first exiting thread's shard becomes the retired shard as is.
    retired_ = it->get();
    return;
  }
  for (std::size_t i = 0; i < next_slot_; ++i) {
    retired_->slots[i].fetch_add(slots[i].load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
  }
  shards_.erase(it);
}

std::atomic<std::uint64_t>* MetricsRegistry::retired_slots() {
  std::lock_guard<std::mutex> lk(mu_);
  if (retired_ == nullptr) {
    shards_.push_back(std::make_unique<Shard>(slot_capacity_));
    retired_ = shards_.back().get();
  }
  return retired_->slots.get();
}

std::size_t MetricsRegistry::shard_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return shards_.size();
}

void MetricsRegistry::add_slot(std::uint32_t slot, std::uint64_t n) noexcept {
  my_slots()[slot].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::sum_slot(std::uint32_t slot) const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->slots[slot].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint32_t MetricsRegistry::take_slots(std::size_t n) {
  if (next_slot_ + n > slot_capacity_) {
    throw std::length_error("MetricsRegistry: slot capacity exhausted");
  }
  const std::uint32_t first = next_slot_;
  next_slot_ += static_cast<std::uint32_t>(n);
  return first;
}

// ---- construction / interning ----------------------------------------------

MetricsRegistry::MetricsRegistry(std::size_t slot_capacity)
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      slot_capacity_(slot_capacity) {
  LiveRegistries& live = live_registries();
  std::lock_guard<std::mutex> lk(live.mu);
  live.by_id.emplace(id_, this);
}

MetricsRegistry::~MetricsRegistry() {
  // Threads exiting from here on leave this registry's shards alone.
  LiveRegistries& live = live_registries();
  std::lock_guard<std::mutex> lk(live.mu);
  live.by_id.erase(id_);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  return reg;
}

Counter MetricsRegistry::counter(const std::string& name, bool stable) {
  if constexpr (!kEnabled) return {};
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = names_.find(name); it != names_.end()) {
    if (it->second.first != 'c') {
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' already registered as another kind");
    }
    return Counter(this, counters_[it->second.second].slot);
  }
  const std::uint32_t slot = take_slots(1);
  names_.emplace(name,
                 std::make_pair('c', static_cast<std::uint32_t>(counters_.size())));
  counters_.push_back(CounterDef{name, slot, stable});
  return Counter(this, slot);
}

Gauge MetricsRegistry::gauge(const std::string& name, bool stable) {
  if constexpr (!kEnabled) return {};
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = names_.find(name); it != names_.end()) {
    if (it->second.first != 'g') {
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' already registered as another kind");
    }
    return Gauge(&gauges_[it->second.second].value);
  }
  names_.emplace(name,
                 std::make_pair('g', static_cast<std::uint32_t>(gauges_.size())));
  GaugeCell& cell = gauges_.emplace_back();
  cell.name = name;
  cell.stable = stable;
  return Gauge(&cell.value);
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds, bool stable) {
  if constexpr (!kEnabled) {
    (void)stable;
    return {};
  }
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument("MetricsRegistry: histogram bounds not sorted");
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = names_.find(name); it != names_.end()) {
    if (it->second.first != 'h') {
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' already registered as another kind");
    }
    return Histogram(this, &hists_[it->second.second]);
  }
  // bounds.size() buckets + overflow + the integer sum slot.
  const std::uint32_t first = take_slots(bounds.size() + 2);
  names_.emplace(name,
                 std::make_pair('h', static_cast<std::uint32_t>(hists_.size())));
  Histogram::Def& def = hists_.emplace_back();
  def.name = name;
  def.bounds = std::move(bounds);
  def.first_slot = first;
  def.stable = stable;
  return Histogram(this, &def);
}

void MetricsRegistry::set_label(const std::string& key,
                                const std::string& value) {
  if constexpr (!kEnabled) return;
  std::lock_guard<std::mutex> lk(mu_);
  labels_[key] = value;
}

// ---- handle operations -----------------------------------------------------

void Counter::add(std::uint64_t n) const noexcept { reg_->add_slot(slot_, n); }

std::uint64_t Counter::value() const {
  if constexpr (!kEnabled) return 0;
  if (reg_ == nullptr) return 0;
  std::lock_guard<std::mutex> lk(reg_->mu_);
  return reg_->sum_slot(slot_);
}

void Histogram::observe(double v) const noexcept {
  if constexpr (kEnabled) {
    if (reg_ == nullptr) return;
    const auto& bounds = def_->bounds;
    const auto bucket = static_cast<std::uint32_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
    auto* slots = reg_->my_slots();
    slots[def_->first_slot + bucket].fetch_add(1, std::memory_order_relaxed);
    const auto add = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::llround(v)));
    slots[def_->first_slot + bounds.size() + 1].fetch_add(
        add, std::memory_order_relaxed);
  } else {
    (void)v;
  }
}

std::uint64_t Histogram::count() const {
  if constexpr (!kEnabled) return 0;
  if (reg_ == nullptr) return 0;
  std::lock_guard<std::mutex> lk(reg_->mu_);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= def_->bounds.size(); ++b) {
    total += reg_->sum_slot(def_->first_slot + static_cast<std::uint32_t>(b));
  }
  return total;
}

std::uint64_t Histogram::sum() const {
  if constexpr (!kEnabled) return 0;
  if (reg_ == nullptr) return 0;
  std::lock_guard<std::mutex> lk(reg_->mu_);
  return reg_->sum_slot(def_->first_slot +
                        static_cast<std::uint32_t>(def_->bounds.size()) + 1);
}

namespace {

/// Shared quantile engine over one consistent (bounds, counts) snapshot.
double quantile_from(const std::vector<double>& bounds,
                     const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double prev = cum;
    cum += static_cast<double>(counts[b]);
    if (cum >= rank && counts[b] > 0) {
      if (b == bounds.size()) {
        // Overflow bucket: the histogram cannot see past its last bound.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double hi = bounds[b];
      const double lo = b == 0 ? std::min(0.0, hi) : bounds[b - 1];
      return lo + (hi - lo) * ((rank - prev) / static_cast<double>(counts[b]));
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

double Histogram::quantile(double q) const {
  if constexpr (!kEnabled) return 0.0;
  if (reg_ == nullptr) return 0.0;
  return quantile_from(def_->bounds, counts(), q);
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  if constexpr (!kEnabled) return s;
  if (reg_ == nullptr) return s;
  std::vector<std::uint64_t> snapshot;
  {
    std::lock_guard<std::mutex> lk(reg_->mu_);
    snapshot.resize(def_->bounds.size() + 1);
    for (std::size_t b = 0; b < snapshot.size(); ++b) {
      snapshot[b] =
          reg_->sum_slot(def_->first_slot + static_cast<std::uint32_t>(b));
    }
    s.sum = reg_->sum_slot(def_->first_slot +
                           static_cast<std::uint32_t>(def_->bounds.size()) + 1);
  }
  for (const std::uint64_t c : snapshot) s.count += c;
  s.p50 = quantile_from(def_->bounds, snapshot, 0.50);
  s.p90 = quantile_from(def_->bounds, snapshot, 0.90);
  s.p95 = quantile_from(def_->bounds, snapshot, 0.95);
  s.p99 = quantile_from(def_->bounds, snapshot, 0.99);
  return s;
}

std::vector<std::uint64_t> Histogram::counts() const {
  if constexpr (!kEnabled) return {};
  if (reg_ == nullptr) return {};
  std::lock_guard<std::mutex> lk(reg_->mu_);
  std::vector<std::uint64_t> out(def_->bounds.size() + 1);
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = reg_->sum_slot(def_->first_slot + static_cast<std::uint32_t>(b));
  }
  return out;
}

// ---- lookups / export ------------------------------------------------------

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  if constexpr (!kEnabled) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = names_.find(name);
  if (it == names_.end() || it->second.first != 'c') return 0;
  return sum_slot(counters_[it->second.second].slot);
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  if constexpr (!kEnabled) return 0.0;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = names_.find(name);
  if (it == names_.end() || it->second.first != 'g') return 0.0;
  return gauges_[it->second.second].value.load(std::memory_order_relaxed);
}

Histogram MetricsRegistry::find_histogram(const std::string& name) {
  if constexpr (!kEnabled) return {};
  std::lock_guard<std::mutex> lk(mu_);
  auto it = names_.find(name);
  if (it == names_.end() || it->second.first != 'h') return {};
  return Histogram(this, &hists_[it->second.second]);
}

std::string MetricsRegistry::label(const std::string& key) const {
  if constexpr (!kEnabled) return {};
  std::lock_guard<std::mutex> lk(mu_);
  auto it = labels_.find(key);
  return it == labels_.end() ? std::string{} : it->second;
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[40];
  // %.17g round-trips doubles exactly: same bits in, same text out.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json(bool include_volatile) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, ref] : names_) {  // names_ iterates sorted
    if (ref.first != 'c') continue;
    const CounterDef& def = counters_[ref.second];
    if (!include_volatile && !def.stable) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_u64(out, sum_slot(def.slot));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, ref] : names_) {
    if (ref.first != 'g') continue;
    const GaugeCell& cell = gauges_[ref.second];
    if (!include_volatile && !cell.stable) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_double(out, cell.value.load(std::memory_order_relaxed));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, ref] : names_) {
    if (ref.first != 'h') continue;
    const Histogram::Def& def = hists_[ref.second];
    if (!include_volatile && !def.stable) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"bounds\":[";
    for (std::size_t b = 0; b < def.bounds.size(); ++b) {
      if (b != 0) out += ',';
      append_double(out, def.bounds[b]);
    }
    out += "],\"counts\":[";
    std::uint64_t total = 0;
    for (std::size_t b = 0; b <= def.bounds.size(); ++b) {
      if (b != 0) out += ',';
      const std::uint64_t c =
          sum_slot(def.first_slot + static_cast<std::uint32_t>(b));
      total += c;
      append_u64(out, c);
    }
    out += "],\"count\":";
    append_u64(out, total);
    out += ",\"sum\":";
    append_u64(out, sum_slot(def.first_slot +
                             static_cast<std::uint32_t>(def.bounds.size()) + 1));
    out += '}';
  }
  out += "},\"labels\":{";
  first = true;
  for (const auto& [key, value] : labels_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, key);
    out += ':';
    append_json_string(out, value);
  }
  out += "}}";
  return out;
}

void MetricsRegistry::reset() {
  if constexpr (!kEnabled) return;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& sh : shards_) {
    for (std::size_t i = 0; i < next_slot_; ++i) {
      sh->slots[i].store(0, std::memory_order_relaxed);
    }
  }
  for (GaugeCell& cell : gauges_) {
    cell.value.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace edgehd::obs
