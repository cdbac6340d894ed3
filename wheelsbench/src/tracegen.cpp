#include "tracegen.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace wheelsbench {

namespace {

constexpr int kTickMs = 500;
constexpr double kOpportunityBits = 1500.0 * 8.0;
/// One emulator session (5 minutes) of ticks.
constexpr std::size_t kBlockTicks = 600;

/// Probability levels of the fitted quantile tables: deciles, plus the 95th
/// and 99th percentile for the RTT's multi-second tail.
constexpr std::array<double, 13> kLevels{0.0,  0.1, 0.2, 0.3,  0.4,  0.5, 0.6,
                                         0.7,  0.8, 0.9, 0.95, 0.99, 1.0};
using Quantiles = std::array<double, kLevels.size()>;

struct CarrierFit {
  std::string_view name;
  double dl_mean_mbps, ul_mean_mbps;  // bulk tests' 500 ms ticks
};

struct TechFit {
  std::string_view carrier, tech;
  double share;        // of the carrier's driving ticks
  double dwell_ticks;  // mean run inside a test (a lower bound: runs end
                       // with their test)
  double rsrp_mu, rsrp_sd;  // dBm
  Quantiles dl, ul, rtt;    // Mbps, Mbps, ms
};

// Fitted by fit_tracegen.py to the driving ticks of tests/golden/bundle
// (7704 KPI ticks, 6300 RTT samples); rerun it to refit. A tech with fewer
// than 30 samples of a quantity takes the carrier's samples over all techs.
constexpr std::array<CarrierFit, 3> kCarriers{{
    {"Verizon", 38.39, 15.60},
    {"T-Mobile", 41.33, 16.98},
    {"AT&T", 28.44, 17.07},
}};
constexpr std::array<TechFit, 9> kTechs{{
    {"Verizon", "LTE-A", 0.9556, 58.4, -94.4, 11.9,
     {0.035, 2.424, 5.507, 10.582, 15.350, 21.147, 27.608, 39.572, 47.361, 83.104, 96.498, 119.534, 178.362},
     {0.035, 1.263, 2.435, 4.355, 7.737, 12.380, 18.463, 24.225, 29.362, 35.488, 38.495, 41.472, 46.001},
     {19.038, 33.373, 39.208, 44.071, 48.998, 53.411, 59.026, 64.802, 73.254, 87.763, 101.900, 137.444, 1180.057}},
    {"Verizon", "5G-mid", 0.0343, 44.0, -88.9, 18.0,
     {0.047, 4.259, 21.080, 40.886, 65.018, 108.048, 116.086, 129.016, 141.887, 198.403, 236.038, 248.991, 266.602},
     {0.035, 1.263, 2.435, 4.355, 7.737, 12.380, 18.463, 24.225, 29.362, 35.488, 38.495, 41.472, 46.001},
     {19.038, 33.373, 39.208, 44.071, 48.998, 53.411, 59.026, 64.802, 73.254, 87.763, 101.900, 137.444, 1180.057}},
    {"Verizon", "5G-mmWave", 0.0101, 26.0, -89.1, 8.1,
     {0.035, 2.463, 5.942, 11.660, 16.325, 22.978, 31.855, 43.032, 57.362, 96.876, 119.630, 213.910, 723.160},
     {0.035, 1.263, 2.435, 4.355, 7.737, 12.380, 18.463, 24.225, 29.362, 35.488, 38.495, 41.472, 46.001},
     {19.038, 33.373, 39.208, 44.071, 48.998, 53.411, 59.026, 64.802, 73.254, 87.763, 101.900, 137.444, 1180.057}},
    {"T-Mobile", "5G-low", 0.4431, 56.9, -96.2, 12.4,
     {0.018, 0.565, 1.813, 3.816, 6.441, 8.725, 14.308, 19.893, 29.378, 44.664, 58.330, 70.935, 100.095},
     {0.244, 0.908, 1.945, 3.502, 6.117, 12.218, 18.596, 22.455, 27.616, 31.423, 39.128, 43.138, 44.762},
     {23.608, 42.079, 48.828, 53.397, 59.599, 64.815, 70.222, 76.700, 87.330, 99.271, 114.973, 140.970, 214.913}},
    {"T-Mobile", "5G-mid", 0.2936, 53.9, -95.6, 16.8,
     {0.070, 3.354, 13.972, 25.054, 33.891, 40.682, 51.984, 62.869, 83.114, 204.467, 418.099, 580.253, 606.896},
     {0.091, 0.649, 1.891, 2.944, 4.287, 6.298, 15.441, 35.489, 45.650, 58.697, 73.511, 155.766, 160.177},
     {15.827, 29.346, 34.763, 39.065, 42.451, 45.865, 49.089, 55.382, 60.095, 71.344, 83.659, 114.262, 151.040}},
    {"T-Mobile", "LTE-A", 0.2399, 51.3, -90.2, 12.6,
     {1.036, 3.689, 11.230, 18.247, 27.563, 35.670, 40.203, 47.706, 53.968, 82.424, 149.367, 160.865, 162.962},
     {0.417, 0.975, 2.194, 5.715, 8.747, 14.531, 19.807, 23.776, 26.000, 30.003, 33.614, 42.783, 45.194},
     {27.526, 48.818, 56.679, 62.517, 69.219, 75.057, 82.020, 90.149, 99.726, 119.185, 136.948, 188.520, 478.596}},
    {"T-Mobile", "LTE", 0.0234, 60.0, -83.4, 17.2,
     {0.018, 1.138, 3.679, 7.559, 13.972, 21.313, 29.540, 39.432, 53.238, 74.073, 133.625, 436.631, 606.896},
     {0.115, 0.218, 0.877, 1.306, 1.431, 12.862, 15.255, 16.414, 18.230, 18.862, 19.628, 19.786, 20.586},
     {24.420, 50.015, 57.523, 62.909, 67.705, 73.753, 79.356, 85.221, 94.869, 108.341, 121.476, 160.423, 531.410}},
    {"AT&T", "5G-low", 0.5327, 57.0, -94.8, 11.9,
     {0.056, 1.694, 2.936, 5.416, 10.619, 15.850, 21.660, 26.738, 31.035, 36.010, 39.217, 50.338, 57.823},
     {0.087, 1.106, 2.020, 3.717, 7.619, 11.072, 18.237, 20.925, 24.313, 33.591, 36.579, 38.244, 39.246},
     {35.783, 53.229, 58.048, 62.257, 66.012, 69.774, 74.021, 78.452, 83.810, 92.475, 102.236, 124.381, 1276.737}},
    {"AT&T", "LTE-A", 0.4673, 52.2, -91.6, 12.6,
     {0.160, 5.122, 12.029, 25.842, 32.994, 38.689, 44.830, 58.589, 81.416, 114.272, 194.948, 302.443, 332.590},
     {0.217, 2.480, 4.174, 5.760, 10.699, 16.492, 23.392, 28.352, 33.519, 38.207, 40.093, 44.535, 59.796},
     {35.783, 53.229, 58.048, 62.257, 66.012, 69.774, 74.021, 78.452, 83.810, 92.475, 102.236, 124.381, 1276.737}},
}};
constexpr double kRhoDl = 0.885, kRhoUl = 0.864, kRhoRtt = 0.143;

class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Standard normal draw (Box-Muller; the first uniform is kept off 0).
  double normal() {
    const double u = 1.0 - uniform();
    return std::sqrt(-2.0 * std::log(u)) *
           std::cos(2.0 * 3.14159265358979323846 * uniform());
  }

 private:
  std::uint64_t state_;
};

/// A standard normal AR(1) process with lag-1 correlation rho.
class Ar1 {
 public:
  explicit Ar1(double rho) : rho_(rho) {}
  double next(SplitMix& rng) {
    z_ = started_ ? rho_ * z_ + std::sqrt(1.0 - rho_ * rho_) * rng.normal()
                  : rng.normal();
    started_ = true;
    return z_;
  }

 private:
  double rho_;
  double z_ = 0.0;
  bool started_ = false;
};

/// The quantile at probability `u` of a fitted table, interpolated
/// linearly between its levels.
double quantile(const Quantiles& q, double u) {
  std::size_t i = 1;
  while (i + 1 < kLevels.size() && kLevels[i] < u) ++i;
  const double f = (u - kLevels[i - 1]) / (kLevels[i] - kLevels[i - 1]);
  return q[i - 1] + std::clamp(f, 0.0, 1.0) * (q[i] - q[i - 1]);
}

/// The standard normal distribution function.
double phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

struct Tick {
  double dl = 0.0, ul = 0.0, rtt = 0.0, rsrp = 0.0;
  const TechFit* tech = nullptr;
};

/// One carrier's link: a chain over the carrier's techs, stepped every
/// 500 ms, that stays for the tech's fitted mean dwell and otherwise moves
/// to another tech in proportion to its share. Rates and RTT follow the
/// tech's fitted quantiles, driven through normal AR(1) processes (a
/// Gaussian copula) so that neighbouring ticks correlate as in the bundle.
class LinkModel {
 public:
  LinkModel(std::size_t carrier, std::uint64_t seed) : rng_(seed) {
    for (const TechFit& t : kTechs) {
      if (t.carrier == kCarriers[carrier].name) techs_.push_back(&t);
    }
    state_ = pick(nullptr);
  }

  Tick next() {
    if (started_ && rng_.uniform() >= 1.0 - 1.0 / state_->dwell_ticks) {
      state_ = pick(state_);
    }
    started_ = true;
    const TechFit& f = *state_;
    Tick t;
    t.tech = state_;
    t.dl = quantile(f.dl, phi(dl_.next(rng_)));
    t.ul = quantile(f.ul, phi(ul_.next(rng_)));
    t.rtt = quantile(f.rtt, phi(rtt_.next(rng_)));
    t.rsrp = f.rsrp_mu + f.rsrp_sd * rng_.normal();
    return t;
  }

 private:
  /// A tech other than `not_this`, drawn in proportion to its share.
  const TechFit* pick(const TechFit* not_this) {
    double total = 0.0;
    for (const TechFit* t : techs_) total += t == not_this ? 0.0 : t->share;
    double u = rng_.uniform() * total;
    for (const TechFit* t : techs_) {
      if (t == not_this) continue;
      if ((u -= t->share) < 0.0) return t;
    }
    return techs_.back() == not_this ? techs_.front() : techs_.back();
  }

  SplitMix rng_;
  std::vector<const TechFit*> techs_;
  const TechFit* state_ = nullptr;
  bool started_ = false;
  Ar1 dl_{kRhoDl}, ul_{kRhoUl}, rtt_{kRhoRtt};
};

/// `n` ticks of one carrier's link. Every 5-minute block is scaled to the
/// carrier's fitted mean downlink and uplink rate, so the bytes and the work
/// per emulator session do not depend on the seed; only the shape of the
/// link does.
std::vector<Tick> link_ticks(std::size_t carrier, std::uint64_t seed,
                             std::size_t n) {
  LinkModel model{carrier, seed};
  std::vector<Tick> ticks(n);
  for (Tick& t : ticks) t = model.next();
  const CarrierFit& fit = kCarriers[carrier];
  for (std::size_t at = 0; at < n; at += kBlockTicks) {
    const std::size_t end = std::min(n, at + kBlockTicks);
    double dl = 0.0, ul = 0.0;
    for (std::size_t k = at; k < end; ++k) {
      dl += ticks[k].dl;
      ul += ticks[k].ul;
    }
    const auto len = static_cast<double>(end - at);
    for (std::size_t k = at; k < end; ++k) {
      ticks[k].dl *= fit.dl_mean_mbps * len / dl;
      ticks[k].ul *= fit.ul_mean_mbps * len / ul;
    }
  }
  return ticks;
}

/// The ERRANT log's name for a tech (its adapter knows 4G, 4G+ and 5G).
std::string_view errant_mode(std::string_view tech) {
  if (tech == "LTE") return "4G";
  if (tech == "LTE-A") return "4G+";
  return "5G";
}

/// Buffered text file writer; close() reports the bytes written.
class Writer {
 public:
  explicit Writer(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) throw std::runtime_error{"cannot write " + path};
    buf_.reserve(kFlushAt + 256);
  }
  ~Writer() {
    if (file_ != nullptr) std::fclose(file_);
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  Writer& put(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  Writer& put(char c) {
    buf_.push_back(c);
    return *this;
  }
  Writer& num(std::int64_t v) {
    char tmp[24];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v);
    buf_.append(tmp, r.ptr);
    return *this;
  }
  Writer& fixed(double v, int precision) {
    char tmp[48];
    const auto r = std::to_chars(tmp, tmp + sizeof tmp, v,
                                 std::chars_format::fixed, precision);
    buf_.append(tmp, r.ptr);
    return *this;
  }
  void end_line() {
    buf_.push_back('\n');
    if (buf_.size() >= kFlushAt) flush();
  }

  std::uint64_t close() {
    flush();
    const bool ok = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!ok) throw std::runtime_error{"cannot write " + path_};
    return written_;
  }

 private:
  static constexpr std::size_t kFlushAt = 1 << 20;

  void flush() {
    if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
      throw std::runtime_error{"cannot write " + path_};
    }
    written_ += buf_.size();
    buf_.clear();
  }

  std::string path_;
  std::FILE* file_;
  std::string buf_;
  std::uint64_t written_ = 0;
};

/// Delivery opportunities for `mbps` over one tick, spread evenly across it.
void mahimahi_tick(Writer& w, std::int64_t tick_start_ms, double mbps) {
  const auto n = static_cast<std::int64_t>(
      std::llround(mbps * 1e6 * (kTickMs / 1000.0) / kOpportunityBits));
  for (std::int64_t i = 0; i < n; ++i) {
    w.num(tick_start_ms + i * kTickMs / n).end_line();
  }
}

}  // namespace

TraceFiles generate_traces(const std::string& dir, std::uint64_t seed,
                           double duration_s) {
  std::filesystem::create_directories(dir);
  const auto n = static_cast<std::size_t>(duration_s * 1000.0 / kTickMs);

  TraceFiles out;
  out.mahimahi_down = dir + "/verizon.down";
  out.mahimahi_up = dir + "/verizon.up";
  out.errant = dir + "/tmobile_errant.csv";
  out.minimal = dir + "/att_minimal.csv";

  {
    const std::vector<Tick> ticks = link_ticks(0, seed ^ 0x6d61686d6168ULL, n);
    Writer down{out.mahimahi_down};
    Writer up{out.mahimahi_up};
    for (std::size_t k = 0; k < n; ++k) {
      const auto start = static_cast<std::int64_t>(k) * kTickMs;
      mahimahi_tick(down, start, ticks[k].dl);
      mahimahi_tick(up, start, ticks[k].ul);
    }
    out.mahimahi_bytes = down.close() + up.close();
  }
  {
    const std::vector<Tick> ticks = link_ticks(1, seed ^ 0x657272616e74ULL, n);
    Writer w{out.errant};
    w.put("op,ts_ms,dl_kbps,ul_kbps,ping_ms,rsrp_dbm,net_mode").end_line();
    for (std::size_t k = 0; k < n; ++k) {
      const Tick& t = ticks[k];
      w.put("op1,").num(static_cast<std::int64_t>(k) * kTickMs);
      w.put(',').num(std::llround(t.dl * 1000.0));
      w.put(',').num(std::llround(t.ul * 1000.0));
      w.put(',').num(std::llround(t.rtt));
      w.put(',').num(std::llround(t.rsrp));
      w.put(',').put(errant_mode(t.tech->tech)).end_line();
    }
    out.errant_bytes = w.close();
  }
  {
    const std::vector<Tick> ticks =
        link_ticks(2, seed ^ 0x6d696e696d616cULL, n);
    Writer w{out.minimal};
    w.put("t_ms,cap_dl_mbps,cap_ul_mbps,rtt_ms,tech").end_line();
    for (std::size_t k = 0; k < n; ++k) {
      const Tick& t = ticks[k];
      w.num(static_cast<std::int64_t>(k) * kTickMs);
      w.put(',').fixed(t.dl, 3);
      w.put(',').fixed(t.ul, 3);
      w.put(',').fixed(t.rtt, 1);
      w.put(',').put(t.tech->tech).end_line();
    }
    out.minimal_bytes = w.close();
  }
  return out;
}

}  // namespace wheelsbench
