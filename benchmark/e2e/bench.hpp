// Shared declarations of the nn_e2e benchmark program: command-line
// options, the result record every workload fills, a fixed-bucket
// histogram, the span tracer, the allocation counter and the seeded
// inputs. nn_e2e calls only the public entry points of src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/neutralizer.hpp"
#include "net/packet.hpp"
#include "scenario/fig1.hpp"
#include "sim/session_churn.hpp"

namespace nnbench {

using namespace nn;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string spans_path;  // traced run only; empty = do not write spans
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Fixed-bucket log-linear histogram of non-negative integers (HDR
/// style): exact below 128, then 128 sub-buckets per power of two, so a
/// bucket is at most 0.8% wide. It never allocates after construction,
/// which lets the generator record every datagram without the memory
/// metric growing with the run length.
class LogHistogram {
 public:
  void add(std::uint64_t v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  /// p in [0, 100], interpolated by rank inside the bucket; 0 if empty.
  [[nodiscard]] double percentile(double p) const noexcept;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

/// One reported number: the value, its unit, and its spread inside the
/// run (quartiles of the samples it summarizes, n samples).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  double q1 = 0;
  double q3 = 0;
  std::uint64_t n = 1;
};

/// The percentile at which a run reads its per-sample rates (waves,
/// 100 ms bins, simulated seconds); per-sample times are read at
/// 100 - kFastEnd. On a shared host every thread, single-threaded ones
/// included, runs in a fast and a ~30% slower state that alternate
/// every second or so, in a share that differs from run to run.
/// Interference only ever slows a sample, so the fast end of a run is a
/// steadier reading of the program's own speed than its median
/// (benchmark/README.md gives both spreads), and a change that slows
/// every packet moves it just as much.
inline constexpr double kFastEnd = 90;

struct Result {
  std::vector<Metric> metrics;      // BENCHMARK.json metrics
  std::vector<Metric> diagnostics;  // printed and stored, never gated
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string name, double value, std::string unit,
              double q1, double q3, std::uint64_t n);
  /// The `p`-th percentile (p in [0, 100]) of `samples`, with their
  /// quartiles as the in-run spread.
  void metric(std::string name, const std::vector<double>& samples, double p,
              std::string unit);
  void metric(std::string name, const LogHistogram& h, double p, double scale,
              std::string unit);
  void diagnostic(std::string name, double value, std::string unit,
                  std::uint64_t n = 1);
  /// Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what);
};

/// The `p`-th percentile (p in [0, 100]) of a sample, interpolated
/// between order statistics; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

// ---- workloads --------------------------------------------------------

Result run_appliance(const Options& opt);
/// Capacity of the running appliance (kpps transmitted, kFastEnd
/// percentile of 100 ms bins) under `seconds` of overload, nothing
/// traced: the end-to-end cost the traced run reconciles its layers
/// against.
double appliance_capacity_kpps(std::uint64_t seed, double seconds, Result& r);
Result run_inprocess(const Options& opt, bool hostile);
Result run_fig1_churn(const Options& opt);
/// The traced run: every layer's public entry points on the workload's
/// own seeded inputs, single-threaded where the layer allows it.
Result run_ledger(const Options& opt);

// ---- allocation counter (alloc_count.cpp) -----------------------------

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
/// Counting is off unless a traced run turns it on, so end-to-end runs
/// pay one relaxed load per allocation and nothing else.
void set_alloc_counting(bool on) noexcept;
[[nodiscard]] AllocCount alloc_count() noexcept;

// ---- span tracer (tracer.cpp) -----------------------------------------

/// Spans recorded from the benchmark's own files around calls into
/// each layer. Single-threaded: spans nest in call order, so a span's
/// self time is its duration minus the time its children cover.
/// Per-name totals are kept for every span; the first `log_cap` spans
/// are also kept in memory, with parent and burst id, and written out
/// when the run ends.
class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t items = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
  };

  explicit Tracer(std::size_t log_cap = 200000);

  void begin(const char* name);
  /// Closes the innermost span; `items` is the work it did (packets,
  /// datagrams, events) for per-item costs.
  void end(std::uint64_t items = 0);
  void set_burst(std::uint64_t burst) noexcept { burst_ = burst; }

  /// Totals for `name` (all zero if no such span closed).
  [[nodiscard]] Totals totals(const std::string& name) const;
  /// Self nanoseconds per item of `name` (0 when it has no items).
  [[nodiscard]] double ns_per_item(const std::string& name) const;
  /// Writes the span log as CSV; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::size_t name;
    std::int64_t start;
    std::int64_t child_ns;
    std::size_t log_index;
    AllocCount alloc_at_start;
  };
  struct Logged {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t burst;
    std::int64_t start;
    std::int64_t end;
    std::int64_t self;
  };
  static constexpr std::size_t kNoIndex = SIZE_MAX;

  std::size_t intern(const char* name);

  std::vector<std::string> names_;
  std::vector<const char*> name_ptrs_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Logged> log_;
  std::size_t log_cap_;
  std::int64_t origin_;
  std::uint64_t burst_ = 0;
};

/// RAII span; set `items` before the scope closes.
struct Span {
  Span(Tracer& t, const char* name) : tracer(t) { tracer.begin(name); }
  ~Span() { tracer.end(items); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Tracer& tracer;
  std::uint64_t items = 0;
};

// ---- the service and the seeded inputs (inputs.cpp) -------------------

inline const net::Ipv4Addr kAnycast(200, 0, 0, 1);
inline const net::Ipv4Addr kLoopback(127, 0, 0, 1);

/// The neutralizer every workload runs: anycast 200.0.0.1 protecting
/// 20.0.0.0/16, the root key the repository's benches use.
[[nodiscard]] core::NeutralizerConfig service_config();
[[nodiscard]] crypto::AesKey root_key();

enum class PacketClass : std::uint8_t {
  kForward,
  kRekeyForward,  // DataForward carrying kKeyRequest
  kReturn,
  kSetup,
  kMalformed,
};

/// Class shares of a packet mix. Sizes are drawn from the classic 7:4:1
/// IMIX unless `fixed_size` is set.
struct MixShape {
  double forward = 1;
  double rekey_share = 0;  // share of forwards that request a rekey
  double ret = 0;
  double setup = 0;
  double malformed = 0;
  std::size_t flows = 4096;
  std::uint32_t fixed_size = 0;
};

[[nodiscard]] MixShape appliance_shape();  // 256 flows, 112-byte forwards
[[nodiscard]] MixShape datapath_shape();   // 80% fwd (2% rekey), 20% return
[[nodiscard]] MixShape hostile_shape();    // 50% malformed, 5% setup
/// A mix of one class (kForward, kReturn, kSetup or kMalformed).
[[nodiscard]] MixShape single_class(PacketClass c, std::uint32_t fixed_size);

struct PacketMix {
  std::vector<net::Packet> packets;
  /// How many packets of each PacketClass the mix holds.
  std::array<std::uint64_t, 5> counts{};
};

/// `n` packets of `shape`, a pure function of (seed, n, shape): flow
/// addresses, nonces, customers, sizes, classes, mutations and the
/// one-time RSA keys of key setups all come from the seed.
[[nodiscard]] PacketMix make_mix(std::uint64_t seed, std::size_t n,
                                 const MixShape& shape);

/// What the serial reference Neutralizer makes of `mix`, fed in bursts
/// of `burst` packets at time 0: its stats and its outputs in order.
struct Reference {
  core::NeutralizerStats stats;
  std::vector<net::Packet> outputs;
};
[[nodiscard]] Reference serial_reference(const PacketMix& mix,
                                         std::size_t burst);

/// Checks that the reference saw exactly the classes the generator
/// built: every valid forward forwarded, every return returned, every
/// setup answered, every malformed packet rejected.
void check_reference(const PacketMix& mix, const core::NeutralizerStats& s,
                     Result& r);

// ---- Fig. 1 with session churn (fig1_churn.cpp) ------------------------

/// The fig1-churn configuration for `span` simulated seconds; `churn`
/// false drops the session control plane (the sim-only baseline the
/// traced run reconciles against).
[[nodiscard]] scenario::Fig1Config fig1_config(std::uint64_t seed,
                                               sim::SimTime span, bool churn);
[[nodiscard]] sim::SessionChurnConfig churn_config(std::uint64_t seed,
                                                   sim::SimTime span);
/// Schedules the two plain IMIX flows for `span` (and the churn replay
/// when the config carries one) on a freshly built Fig. 1.
void schedule_fig1(scenario::Fig1& fig, sim::SimTime span);
/// Datagrams the two plain flows delivered so far.
[[nodiscard]] std::uint64_t fig1_delivered(const scenario::Fig1& fig);
/// The shared AT&T uplink (att-access -> att-peering).
[[nodiscard]] const sim::Link& fig1_uplink(scenario::Fig1& fig);

}  // namespace nnbench
