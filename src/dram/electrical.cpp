#include "dram/electrical.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/prof.hpp"
#include "common/rng.hpp"
#include "dram/bank_stepper.hpp"
#include "dram/calibration.hpp"
#include "dram/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace simra::dram {

namespace {

// Salts keying the independent persistent-variation fields.
constexpr std::uint64_t kSaltMajOffset = 0x10;
constexpr std::uint64_t kSaltMajGroup = 0x11;
constexpr std::uint64_t kSaltMajPolarity = 0x12;
constexpr std::uint64_t kSaltSmraOffset = 0x20;
constexpr std::uint64_t kSaltSmraGroup = 0x21;
constexpr std::uint64_t kSaltCopyOffset = 0x30;
constexpr std::uint64_t kSaltCopyGroup = 0x31;
constexpr std::uint64_t kSaltLatchRace = 0x40;
constexpr std::uint64_t kSaltFracSense = 0x50;

constexpr double kLowTimingNs = 1.6;  // "1.5 ns" slot, with float slack.

/// Entries per memo (spans, codes and masks alike) before it is cleared:
/// bounds the code memo, the one that grows with the rows a sweep touches,
/// at 4,096 x 8 KiB on an 8,192-column row.
constexpr std::size_t kMemoCap = 4096;

double env_gain(const EnvironmentState& env) {
  const auto& p = calib::kMajx;
  const double temp_factor =
      1.0 + p.temp_gain_slope * (env.temperature.value - 50.0);
  const double vpp_factor =
      1.0 - p.vpp_gain_slope * (2.5 - env.vpp.value);
  return p.gain * temp_factor * vpp_factor;
}

}  // namespace

namespace calib {

double mrc_latch_fraction(double t1_ns) {
  // Piecewise-linear SA latch race vs t1: nothing latched before the
  // sense-enable point, ~everything by tRAS.
  struct Point {
    double t;
    double f;
  };
  static constexpr Point kPoints[] = {{kSenseEnableNs, 0.30}, {6.0, 0.995},
                                      {12.0, 0.999}, {18.0, 0.9995},
                                      {36.0, 1.0}};
  if (t1_ns < kPoints[0].t) return 0.0;
  for (std::size_t i = 1; i < std::size(kPoints); ++i) {
    if (t1_ns <= kPoints[i].t) {
      const auto& a = kPoints[i - 1];
      const auto& b = kPoints[i];
      return a.f + (b.f - a.f) * (t1_ns - a.t) / (b.t - a.t);
    }
  }
  return 1.0;
}

}  // namespace calib

std::size_t ElectricalModel::KeyHash::operator()(
    const SpanKey& k) const noexcept {
  return static_cast<std::size_t>(
      hash_combine(hash_combine(hash_combine(k.salt, k.k1), k.k2), k.count));
}

std::size_t ElectricalModel::KeyHash::operator()(
    const MaskKey& k) const noexcept {
  return static_cast<std::size_t>(hash_combine((*this)(k.first), k.second));
}

namespace {

/// Recycles span storage across models and chip tasks: a released span
/// returns its block here instead of freeing it, and the next fill of the
/// same size reuses it. Only the normal spans pass through it, a few per
/// (bank, subarray); capping its free list at zero left `fig3_fleet`'s CPU
/// unchanged (DESIGN.md, "Pure-function memoization"). Thread-safe; the
/// free list is capped, overflow is freed for real.
class SpanPool {
 public:
  static SpanPool& instance() {
    static SpanPool pool;
    return pool;
  }

  std::shared_ptr<float[]> acquire(std::size_t count) {
    float* block = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = free_.find(count);
      if (it != free_.end() && !it->second.empty()) {
        block = it->second.back();
        it->second.pop_back();
        total_free_ -= count;
      }
    }
    // Recycle stats ride the obs counter registry (cached refs, relaxed
    // increments): acquire only runs on span-cache misses, so the
    // bookkeeping is far off the per-trial path.
    static prof::Counter& hit_counter = prof::Counter::get("dram/span_pool_hit");
    static prof::Counter& miss_counter =
        prof::Counter::get("dram/span_pool_miss");
    if (block == nullptr) {
      block = new float[count];
      miss_counter.add_count(1);
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hit_counter.add_count(1);
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::shared_ptr<float[]>(
        block, [count](float* p) { SpanPool::instance().release(p, count); });
  }

  SpanPoolStats stats() const noexcept {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

  ~SpanPool() {
    for (auto& [count, blocks] : free_)
      for (float* p : blocks) delete[] p;
  }

 private:
  void release(float* block, std::size_t count) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (total_free_ + count <= kMaxFreeFloats) {
        free_[count].push_back(block);
        total_free_ += count;
        return;
      }
    }
    delete[] block;
  }

  /// Free-list cap (floats): 64 Mi floats = 256 MiB of idle blocks.
  static constexpr std::size_t kMaxFreeFloats = 64u << 20;

  std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<float*>> free_;
  std::size_t total_free_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace

SpanPoolStats span_pool_stats() noexcept { return SpanPool::instance().stats(); }

std::shared_ptr<const float[]> ElectricalModel::span(
    const SpanKey& key) const {
  if (const auto it = spans_.find(key); it != spans_.end()) return it->second;
  SIMRA_PROF_SCOPE("electrical/deviates_miss");
  std::shared_ptr<float[]> values = SpanPool::instance().acquire(key.count);
  variation_->normal_fill(key.salt, key.k1, key.k2, {values.get(), key.count});
  if (spans_.size() >= kMemoCap) spans_.clear();
  spans_.emplace(key, values);
  return values;
}

const BitVec& ElectricalModel::remember(const MaskKey& key, BitVec mask) const {
  if (masks_.size() >= kMemoCap) masks_.clear();
  return masks_.emplace(key, std::move(mask)).first->second;
}

const BitVec& ElectricalModel::threshold_mask_cached(const SpanKey& key,
                                                     float z_eff) const {
  const MaskKey mask_key{key, std::bit_cast<std::uint32_t>(z_eff)};
  if (const auto it = masks_.find(mask_key); it != masks_.end())
    return it->second;
  // Compared in the uniform domain: zeta < z_eff <=> u < normal_cdf(z_eff)
  // (the deviate is inverse_normal_cdf(u) and the CDF is monotone), and on
  // each column's hash code, re-hashing only the columns whose code ties
  // the threshold: the row keeps one byte per column, no float span.
  const std::uint64_t prefix = variation_->prefix(key.salt, key.k1, key.k2);
  auto codes = codes_.find(key);
  if (codes == codes_.end()) {
    SIMRA_PROF_SCOPE("electrical/deviates_miss");
    auto fresh = std::make_unique_for_overwrite<std::uint8_t[]>(key.count);
    kernels::hashed_code_fill(prefix, {fresh.get(), key.count});
    if (codes_.size() >= kMemoCap) codes_.clear();
    codes = codes_.emplace(key, std::move(fresh)).first;
  }
  const auto u_eff =
      static_cast<float>(normal_cdf(static_cast<double>(z_eff)));
  BitVec mask(0);
  {
    SIMRA_PROF_SCOPE("electrical/threshold_mask_compute");
    mask = kernels::code_threshold_mask(
        prefix, {codes->second.get(), key.count}, u_eff);
  }
  return remember(mask_key, std::move(mask));
}

std::uint64_t group_key_of(std::span<const RowAddr> rows) {
  std::uint64_t key = hash64(rows.size());
  for (RowAddr r : rows) key = hash_combine(key, r);
  return key;
}

ElectricalModel::ElectricalModel(const VendorProfile* profile,
                                 const VariationField* variation)
    : profile_(profile), variation_(variation) {
  if (profile_ == nullptr || variation_ == nullptr)
    throw std::invalid_argument("electrical model needs profile and variation");
}

ApaDecision ElectricalModel::classify_apa(Nanoseconds t1, Nanoseconds t2) const {
  const auto& maj = calib::kMajx;
  const auto& smra = calib::kSmra;
  ApaDecision d;
  d.latch_fraction = calib::mrc_latch_fraction(t1.value);

  if (d.latch_fraction == 0.0) {
    // Charge-share (MAJ) regime: the longer the first row stays connected
    // alone, the more charge it transfers relative to the second group.
    d.first_row_extra_weight =
        maj.asym_weight_per_ns *
        std::max(0.0, t1.value + t2.value - maj.asym_baseline_ns);
  }
  if (t2.value <= kLowTimingNs) {
    d.second_group_weight = maj.weak_t2_row_weight;
    d.row_dropout_probability = smra.dropout_t2_low;
    d.majx_z_penalty += maj.weak_t2_z_penalty;
    d.smra_z_penalty += smra.penalty_t2_low;
  }
  if (t1.value <= kLowTimingNs) d.smra_z_penalty += smra.penalty_t1_low;
  if (t1.value + t2.value < 4.5) d.smra_z_penalty += smra.penalty_sum_low;
  return d;
}

double ElectricalModel::group_quality(const BitlineContext& ctx,
                                      std::uint64_t salt) const {
  double sigma = 0.0;
  switch (salt) {
    case kSaltMajGroup:
      sigma = calib::kMajx.group_sigma;
      break;
    case kSaltSmraGroup:
      sigma = calib::kSmra.group_sigma;
      break;
    case kSaltCopyGroup:
      sigma = calib::kMrc.group_sigma;
      break;
    default:
      throw std::logic_error("unknown group-quality salt");
  }
  const double deviate =
      variation_->normal(salt, ctx.bank, ctx.subarray, ctx.group_key);
  return std::exp(sigma * deviate);
}

double ElectricalModel::estimate_pattern_noise(
    std::span<const ConnectedRow> rows) {
  SIMRA_PROF_SCOPE("electrical/estimate_pattern_noise");
  // Byte-periodic (fixed) data perturbs neighbouring bitlines coherently
  // along the run and its coupling cancels; aperiodic (random) data does
  // not. Measured as the lag-8 bit disagreement of the stored data,
  // sampled every 16th position — word-shift/XOR form of probing
  // get(c) != get(c + 8) bit by bit.
  std::size_t disagree = 0;
  std::size_t total = 0;
  for (const ConnectedRow& row : rows) {
    if (row.data == nullptr) continue;
    disagree += kernels::lag8_disagreement(*row.data, total);
  }
  if (total == 0) return 0.0;
  return std::min(0.5, static_cast<double>(disagree) / static_cast<double>(total));
}

namespace {

/// Resolution precomputed for one discrete per-column sum value: the
/// gain/pow/threshold chain is a pure function of the sum, so it runs
/// once per distinct value instead of once per column.
struct SumClass {
  bool computed = false;
  bool tie = false;
  bool majority_one = false;
  double zg = 0.0;  ///< z / g, compared against the column's zeta deviate.
};

/// Parameters of the per-sum margin math, captured once per resolve.
struct MarginMath {
  double gain = 0.0;
  double g = 1.0;
  double noise_denominator = 1.0;
  double threshold = 0.0;
  double vendor_shift = 0.0;
  double majx_z_penalty = 0.0;
  double n_connected = 0.0;
};

/// Computes one class entry with exactly the per-column math of the
/// scalar loop (double-promoted float sum in, z/g threshold out).
SumClass make_sum_class(float fsum, const MarginMath& m) {
  const auto& p = calib::kMajx;
  SumClass e;
  e.computed = true;
  const double sum = fsum;
  if (std::abs(sum) < 1e-9) {
    e.tie = true;
    return e;
  }
  e.majority_one = sum > 0.0;
  const double x =
      m.gain * std::pow(std::abs(sum) / (p.cap_ratio + m.n_connected),
                        p.margin_exponent);
  const double z = (x - m.threshold) / m.noise_denominator -
                   m.majx_z_penalty + m.vendor_shift;
  e.zg = z / m.g;
  return e;
}

/// Folds the per-column accumulation sequence of a (lead, odd, tail)
/// weight-class combination: `n_lead` rows of `tw_common` set before the
/// odd-weight row, the odd row itself when `has_odd`, then `n_tail` more
/// common rows — the exact float-addition order of the scalar loop over
/// rows, which is what makes the per-class sums bit-identical to it.
float fold_class_sum(float total_weight, std::size_t n_lead, bool has_odd,
                     float tw_odd, std::size_t n_tail, float tw_common) {
  float sum = -total_weight;
  for (std::size_t i = 0; i < n_lead; ++i) sum += tw_common;
  if (has_odd) sum += tw_odd;
  for (std::size_t i = 0; i < n_tail; ++i) sum += tw_common;
  return sum;
}

/// Sense-margin (z/g) bucket edges, shared by the registry histogram and
/// the stack-local tally below.
constexpr std::array<double, 11> kMarginBounds = {-3,    -2,   -1, -0.5,
                                                  -0.25, 0,    0.25, 0.5,
                                                  1,     2,    3};

obs::Histogram& margin_hist() {
  static obs::Histogram& hist = obs::MetricsRegistry::instance().histogram(
      "electrical/sense_margin",
      std::vector<double>(kMarginBounds.begin(), kMarginBounds.end()));
  return hist;
}

/// Sense-margin (z/g) distribution tally for one resolve call. The
/// per-class loop runs for every sensing operation, so it accumulates
/// into this stack-local array (weighted by the class's column count —
/// totals match the per-column loop the class math replaced) and merges
/// into the shared histogram once per call, keeping atomic traffic out
/// of the hot loop. Callers gate on obs::enabled().
struct MarginBatch {
  std::array<std::uint64_t, kMarginBounds.size() + 1> counts{};
  double sum = 0.0;
  std::uint64_t n = 0;

  void add(double zg, std::uint64_t weight) {
    // First bound >= zg, same bucketing as Histogram::observe.
    std::size_t b = 0;
    while (b < kMarginBounds.size() && zg > kMarginBounds[b]) ++b;
    counts[b] += weight;
    sum += zg * static_cast<double>(weight);
    n += weight;
  }

  void flush() {
    if (n == 0) return;
    margin_hist().merge(counts, sum, n);
    counts.fill(0);
    sum = 0.0;
    n = 0;
  }
};

}  // namespace

ChargeShareResult ElectricalModel::resolve_charge_share(
    const BitlineContext& ctx, std::span<const ConnectedRow> rows,
    double pattern_noise, const EnvironmentState& env, const ApaDecision& apa,
    Rng& rng) const {
  SIMRA_PROF_SCOPE("electrical/resolve_charge_share");
  const bool obs_margins = obs::enabled();
  MarginBatch margins;
  const auto& p = calib::kMajx;
  const std::size_t columns = ctx.columns;

  ChargeShareResult out;
  out.resolved = BitVec(columns);
  out.stable = BitVec(columns);

  MarginMath m;
  m.n_connected = static_cast<double>(rows.size());
  m.gain = env_gain(env);
  m.g = group_quality(ctx, kSaltMajGroup);
  m.noise_denominator = std::sqrt(1.0 + m.n_connected * p.cell_noise);
  m.threshold = p.threshold + p.coupling * pattern_noise;
  m.vendor_shift = profile_->maj_margin_shift;
  m.majx_z_penalty = apa.majx_z_penalty;

  // Rows fall into weight classes (the first-activated row vs the rest),
  // so each column's signed float sum — accumulated row by row in the
  // scalar model — takes one value per (set bits before the odd-weight
  // row, odd row's bit, set bits after) combination. Split each word's
  // columns by class with bit-sliced counts, then run the pow/threshold
  // chain once per class.
  float total_weight = 0.0f;
  std::vector<const BitVec*> data_rows;
  std::vector<float> twice_w;
  data_rows.reserve(rows.size());
  twice_w.reserve(rows.size());
  for (const ConnectedRow& row : rows) {
    if (row.data == nullptr) continue;  // Frac row: capacitance only.
    total_weight += static_cast<float>(row.weight);
    data_rows.push_back(row.data);
    twice_w.push_back(2.0f * static_cast<float>(row.weight));
  }
  const std::size_t k = data_rows.size();

  // Weight-class shape: all rows equal, or exactly one odd row among
  // equals. Anything richer (3+ classes) falls back to the scalar loop.
  bool all_equal = true;
  for (std::size_t i = 1; i < k; ++i)
    if (twice_w[i] != twice_w[0]) all_equal = false;
  std::size_t odd_index = k;  // k = no odd row.
  bool two_class = false;
  if (!all_equal && k >= 2) {
    for (std::size_t candidate = 0; candidate < k && !two_class; ++candidate) {
      bool rest_equal = true;
      float common = 0.0f;
      bool have_common = false;
      for (std::size_t i = 0; i < k; ++i) {
        if (i == candidate) continue;
        if (!have_common) {
          common = twice_w[i];
          have_common = true;
        } else if (twice_w[i] != common) {
          rest_equal = false;
          break;
        }
      }
      if (rest_equal && twice_w[candidate] != common) {
        two_class = true;
        odd_index = candidate;
      }
    }
  }

  // Both blocks stay held for the whole resolve: the second lookup may
  // reset the span memo.
  const std::shared_ptr<const float[]> zeta_block =
      span({kSaltMajOffset, ctx.bank, ctx.subarray, columns});
  const std::shared_ptr<const float[]> polarity_block =
      span({kSaltMajPolarity, ctx.bank, ctx.subarray, columns});
  const std::span<const float> zetas(zeta_block.get(), columns);
  const std::span<const float> polarities(polarity_block.get(), columns);

  bool full_width = true;
  for (const BitVec* row : data_rows)
    if (row->size() < columns) full_width = false;

  if ((all_equal || two_class) && k <= 63 && full_width) {
    const BitVec* odd_row = two_class ? data_rows[odd_index] : nullptr;
    const std::size_t n_lead_rows = two_class ? odd_index : k;
    const std::size_t n_tail_rows = two_class ? k - odd_index - 1 : 0;
    float tw_common = k > 0 ? twice_w[0] : 0.0f;
    if (two_class) tw_common = twice_w[odd_index == 0 ? 1 : 0];
    const float tw_odd = two_class ? twice_w[odd_index] : 0.0f;
    const std::size_t tail_span = n_tail_rows + 1;
    const std::size_t n_classes =
        two_class ? (n_lead_rows + 1) * tail_span * 2 : n_lead_rows + 1;

    // Pass 1: bit-sliced counts of the rows before and after the odd row,
    // 64 columns per word.
    const std::size_t n_words = (columns + 63) / 64;
    const auto lead_planes =
        static_cast<std::size_t>(std::bit_width(n_lead_rows));
    const auto tail_planes =
        static_cast<std::size_t>(std::bit_width(n_tail_rows));
    std::vector<std::uint64_t> planes((lead_planes + tail_planes) * n_words);
    const std::span<const BitVec* const> all_rows(data_rows);
    const std::span<std::uint64_t> all_planes(planes);
    kernels::count_planes(all_rows.first(n_lead_rows), n_words,
                          all_planes.first(lead_planes * n_words));
    kernels::count_planes(all_rows.last(n_tail_rows), n_words,
                          all_planes.subspan(lead_planes * n_words));

    // Pass 2: split each word's columns by class, from the most
    // significant plane down, into disjoint (mask, class) parts. A class
    // index is (lead * tail_span + tail) * 2 + odd bit, or the lead count
    // alone when all weights are equal. The parts say which classes
    // occur and how many columns each holds.
    using Part = kernels::ClassMask;
    std::vector<Part> parts;
    parts.reserve(n_words * 8);
    std::vector<std::size_t> word_end(n_words);
    std::vector<std::uint8_t> seen(n_classes, 0);
    const auto lead_step =
        static_cast<std::uint32_t>(two_class ? tail_span * 2 : 1);
    for (std::size_t wi = 0; wi < n_words; ++wi) {
      Part local[64];
      std::size_t n = 1;
      const std::size_t valid = std::min<std::size_t>(64, columns - wi * 64);
      local[0] = {valid == 64 ? ~0ULL : (1ULL << valid) - 1, 0};
      const auto split = [&](std::uint64_t plane, std::uint32_t step) {
        const std::size_t before = n;
        for (std::size_t i = 0; i < before; ++i) {
          const std::uint64_t set = local[i].mask & plane;
          if (set == 0) continue;
          if (set != local[i].mask) {
            local[i].mask &= ~plane;
            local[n++] = {set, local[i].cls + step};
          } else {
            local[i].cls += step;
          }
        }
      };
      for (std::size_t plane = lead_planes; plane-- > 0;)
        split(planes[plane * n_words + wi], lead_step << plane);
      for (std::size_t plane = tail_planes; plane-- > 0;)
        split(planes[(lead_planes + plane) * n_words + wi], 2u << plane);
      if (odd_row != nullptr) split(odd_row->words()[wi], 1);
      for (std::size_t i = 0; i < n; ++i) seen[local[i].cls] = 1;
      parts.insert(parts.end(), local, local + n);
      word_end[wi] = parts.size();
    }

    // Pass 3: fold the sums of the realized classes (exact float-add
    // order of the scalar row loop), run the batched margin chain over
    // them, and keep each class's verdict with its zg rounded up to a
    // float, which the float zetas compare against exactly.
    std::vector<std::int32_t> realized;
    realized.reserve(n_classes);
    for (std::size_t idx = 0; idx < n_classes; ++idx)
      if (seen[idx] != 0) realized.push_back(static_cast<std::int32_t>(idx));
    std::vector<float> class_sums(realized.size());
    for (std::size_t i = 0; i < realized.size(); ++i) {
      const auto idx = static_cast<std::size_t>(realized[i]);
      std::size_t n_lead = idx;
      bool odd_set = false;
      std::size_t n_tail = 0;
      if (two_class) {
        odd_set = (idx & 1) != 0;
        const std::size_t rest = idx >> 1;
        n_lead = rest / tail_span;
        n_tail = rest % tail_span;
      }
      class_sums[i] = fold_class_sum(total_weight, n_lead, odd_set, tw_odd,
                                     n_tail, tw_common);
    }

    kernels::MarginChainParams mp;
    mp.gain = m.gain;
    mp.g = m.g;
    mp.noise_denominator = m.noise_denominator;
    mp.threshold = m.threshold;
    mp.vendor_shift = m.vendor_shift;
    mp.z_penalty = m.majx_z_penalty;
    mp.n_connected = m.n_connected;
    mp.cap_ratio = p.cap_ratio;
    mp.margin_exponent = p.margin_exponent;

    std::vector<double> dense_zg(realized.size());
    std::vector<std::int32_t> dense_flags(realized.size());
    kernels::margin_chain(class_sums, mp, dense_zg, dense_flags);

    // Under obs, the margin tally weighs each class by its columns.
    std::vector<std::uint64_t> class_count(obs_margins ? n_classes : 0);
    if (obs_margins) kernels::add_class_columns(parts, class_count);

    std::vector<float> threshold_table(n_classes, 0.0f);
    std::vector<std::int32_t> flag_table(n_classes, 0);
    for (std::size_t i = 0; i < realized.size(); ++i) {
      const auto idx = static_cast<std::size_t>(realized[i]);
      threshold_table[idx] = kernels::float_threshold(dense_zg[i]);
      flag_table[idx] = dense_flags[i];
      if (obs_margins && (dense_flags[i] & kernels::kClassTie) == 0)
        margins.add(dense_zg[i], class_count[idx]);
    }
    margins.flush();

    // Pass 4: resolve each word against its parts' verdicts, then flip
    // the metastable ties in ascending column order — the same Rng draw
    // sequence as the scalar loop, which consumed tie coin flips in
    // column order too.
    std::array<float, 64> zeta_pad{};
    std::array<float, 64> polarity_pad{};
    // One parts array for all words: ClassPart's member initializers
    // would otherwise zero 64 entries per word.
    kernels::ClassPart word_parts[64];
    std::size_t first = 0;
    for (std::size_t wi = 0; wi < n_words; ++wi) {
      const std::size_t end = word_end[wi];
      for (std::size_t i = first; i < end; ++i)
        word_parts[i - first] = {parts[i].mask, threshold_table[parts[i].cls],
                                 flag_table[parts[i].cls]};
      const std::size_t base = wi * 64;
      const float* word_zetas = zetas.data() + base;
      const float* word_polarities = polarities.data() + base;
      if (columns - base < 64) {
        // Partial last word: pad its values out to 64.
        std::copy(zetas.begin() + base, zetas.end(), zeta_pad.begin());
        std::copy(polarities.begin() + base, polarities.end(),
                  polarity_pad.begin());
        word_zetas = zeta_pad.data();
        word_polarities = polarity_pad.data();
      }
      kernels::WordVerdict v = kernels::resolve_word(
          word_zetas, word_polarities,
          std::span<const kernels::ClassPart>(word_parts, end - first));
      first = end;
      out.ties += static_cast<std::size_t>(std::popcount(v.ties));
      for (std::uint64_t tie = v.ties; tie != 0; tie &= tie - 1) {
        // Perfect tie: the SA resolves metastably.
        v.resolved |= static_cast<std::uint64_t>(rng.chance(0.5))
                      << std::countr_zero(tie);
      }
      out.resolved.set_word(wi, v.resolved);
      out.stable.set_word(wi, v.stable);
    }
    return out;
  }

  // Scalar fallback (3+ weight classes or > 63 rows): the original
  // per-column accumulation and margin math.
  std::vector<float> sums(columns, -total_weight);
  for (std::size_t ri = 0; ri < k; ++ri) {
    const float tw = twice_w[ri];
    const auto& words = data_rows[ri]->words();
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
      std::uint64_t word = words[wi];
      const std::size_t base = wi * 64;
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        if (base + bit < columns) sums[base + bit] += tw;
      }
    }
  }
  for (std::size_t c = 0; c < columns; ++c) {
    const SumClass e = make_sum_class(sums[c], m);
    if (obs_margins && !e.tie) margins.add(e.zg, 1);
    if (e.tie) {
      out.resolved.set(c, rng.chance(0.5));
      ++out.ties;
    } else if (e.zg > zetas[c]) {
      out.resolved.set(c, e.majority_one);
      out.stable.set(c, true);
    } else {
      out.resolved.set(c, polarities[c] > 0.0f);
    }
  }
  margins.flush();
  return out;
}

const BitVec& ElectricalModel::write_overdrive_mask(const BitlineContext& ctx,
                                             RowAddr local_row,
                                             unsigned differing_fields,
                                             const EnvironmentState& env,
                                             const ApaDecision& apa) const {
  SIMRA_PROF_SCOPE("electrical/write_overdrive_mask");
  const auto& p = calib::kSmra;
  double z = p.z_best - apa.smra_z_penalty;
  if (differing_fields >= 5) z -= p.penalty_full_tree;
  z += p.temp_slope_per_degC * (env.temperature.value - 50.0);
  z -= p.vpp_slope_per_volt * (2.5 - env.vpp.value);
  const double g = group_quality(ctx, kSaltSmraGroup);
  const auto z_eff = static_cast<float>(z / g);

  return threshold_mask_cached(
      {kSaltSmraOffset, ctx.bank,
       (static_cast<std::uint64_t>(ctx.subarray) << 32) | local_row,
       ctx.columns},
      z_eff);
}

const BitVec& ElectricalModel::copy_stable_mask(const BitlineContext& ctx,
                                         RowAddr dest_row, std::size_t n_dest,
                                         const BitVec& source,
                                         const EnvironmentState& env) const {
  SIMRA_PROF_SCOPE("electrical/copy_stable_mask");
  const auto& p = calib::kMrc;
  std::size_t bucket = 0;
  if (n_dest > 15)
    bucket = 4;
  else if (n_dest > 7)
    bucket = 3;
  else if (n_dest > 3)
    bucket = 2;
  else if (n_dest > 1)
    bucket = 1;
  double z = p.z_by_dest[bucket];
  z += p.temp_slope_per_degC * (env.temperature.value - 50.0);
  z -= p.vpp_slope_per_volt * (2.5 - env.vpp.value);
  if (bucket == 4 &&
      source.popcount() > source.size() - source.size() / 10) {
    // Driving ~all-ones into 31 destinations keeps every pull-up active.
    z -= p.all_ones_31_penalty;
  }
  const double g = group_quality(ctx, kSaltCopyGroup);
  const auto z_eff = static_cast<float>(z / g);

  return threshold_mask_cached(
      {kSaltCopyOffset, ctx.bank,
       (static_cast<std::uint64_t>(ctx.subarray) << 32) | dest_row,
       ctx.columns},
      z_eff);
}

bool ElectricalModel::bitline_latched(const BitlineContext& ctx,
                                      std::size_t column,
                                      const ApaDecision& apa) const {
  if (apa.latch_fraction <= 0.0) return false;
  if (apa.latch_fraction >= 1.0) return true;
  // Persistent race outcome per bitline: higher latch fractions strictly
  // grow the latched set (the threshold moves, the deviate does not).
  const std::shared_ptr<const float[]> race =
      span({kSaltLatchRace, ctx.bank, ctx.subarray, ctx.columns});
  return normal_cdf(race[column]) < apa.latch_fraction;
}

BitVec ElectricalModel::latched_mask(const BitlineContext& ctx,
                                     const ApaDecision& apa) const {
  SIMRA_PROF_SCOPE("electrical/latched_mask");
  if (apa.latch_fraction <= 0.0) return BitVec(ctx.columns);
  if (apa.latch_fraction >= 1.0) return BitVec(ctx.columns, true);
  const MaskKey key{{kSaltLatchRace, ctx.bank, ctx.subarray, ctx.columns},
                    std::bit_cast<std::uint64_t>(apa.latch_fraction)};
  if (const auto it = masks_.find(key); it != masks_.end()) return it->second;
  const std::shared_ptr<const float[]> race = span(key.first);
  return remember(key, kernels::latch_race_mask({race.get(), ctx.columns},
                                                apa.latch_fraction));
}

BitVec ElectricalModel::sense_frac_row(const BitlineContext& ctx,
                                       Rng::CounterStream& noise) const {
  SIMRA_PROF_SCOPE("electrical/sense_frac_row");
  if (profile_->sense_amp_bias != 0) {
    BitVec out(ctx.columns);
    out.fill(profile_->sense_amp_bias > 0);
    return out;
  }
  // Unbiased SAs resolve from their (persistent) offset plus thermal
  // noise: weak-offset bitlines flip trial to trial (the entropy source
  // of SiMRA-based TRNGs). The noise stream is counter-based, so draw i
  // of the batch is a pure function of (stream, cursor + i): the batched
  // SIMD fill, any chunked fill, and a per-column scalar loop all produce
  // the same bits.
  const std::shared_ptr<const float[]> offsets =
      span({kSaltFracSense, ctx.bank, ctx.subarray, ctx.columns});
  std::vector<double> draws(ctx.columns);
  const std::uint64_t base = noise.reserve(ctx.columns);
  kernels::counter_normal_fill(noise.prefix(), base, draws);
  return kernels::offset_noise_mask({offsets.get(), ctx.columns}, draws, 0.35);
}

}  // namespace simra::dram
