// datapath-imix and hostile-mix: the threaded ShardRuntime fed in
// process by one producer thread, with no sockets anywhere. One ingress
// queue and one worker, because two workers do not repeat from run to
// run on a 4-core box. Each wave is refilled from the seeded pool
// outside the timed region (as in bench_runtime); only
// submit_burst .. flush is timed.
#include <numeric>

#include "crypto/chacha.hpp"
#include "runtime/shard_runtime.hpp"

#include "bench.hpp"

namespace nnbench {

namespace {

constexpr std::size_t kWave = 16384;
constexpr int kSetupReps = 101;
constexpr int kWarmupWaves = 2;

runtime::RuntimeConfig inprocess_config() {
  runtime::RuntimeConfig cfg;
  cfg.ring_capacity = 2048;
  cfg.max_batch = 64;
  cfg.egress = runtime::EgressMode::kRecycle;
  return cfg;
}

}  // namespace

Result run_inprocess(const Options& opt, bool hostile) {
  Result r;
  const PacketMix mix =
      make_mix(opt.seed, kWave, hostile ? hostile_shape() : datapath_shape());
  const Reference ref = serial_reference(mix, 64);
  check_reference(mix, ref.stats, r);

  const runtime::RuntimeConfig rcfg = inprocess_config();
  // The producer takes the core the placement policy gives ingress
  // queue 0, so producer and worker never share one; set-up runs there
  // too, so every run times it on the same core.
  (void)runtime::pin_current_thread(
      runtime::placement_cpu_for_ingress(rcfg, 0, 1));
  std::vector<double> setup_s;
  std::unique_ptr<runtime::ShardRuntime> rt;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rt.reset();
    const std::int64_t t0 = now_ns();
    rt = std::make_unique<runtime::ShardRuntime>(1, service_config(),
                                                 root_key(), rcfg);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  runtime::IngressPort port = rt->port(0);

  std::vector<net::Packet> wave;
  wave.reserve(kWave);
  LogHistogram wave_ns;
  // Every wave offers the whole pool in a fresh seeded order. The
  // order in which the refill allocates decides how the worker's frees
  // fragment and trim the heap; with one fixed order per seed, a run's
  // speed depended on its seed alone (seeds 6, 7 and 9 ran 20-25%
  // slower than seeds 1 and 8, run after run).
  std::vector<std::uint32_t> order(kWave);
  std::iota(order.begin(), order.end(), 0u);
  crypto::ChaChaRng order_rng(opt.seed);
  std::vector<double> wave_kpps;
  std::uint64_t waves = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (int w = 0; w < kWarmupWaves || now_ns() < deadline; ++w) {
    wave.clear();
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[order_rng.uniform(i + 1)]);
    }
    for (const std::uint32_t i : order) {
      wave.push_back(net::Packet(mix.packets[i]));
    }
    const std::int64_t t0 = now_ns();
    const std::size_t accepted = port.submit_burst(wave, 0);
    rt->flush();
    const std::int64_t dt = now_ns() - t0;
    ++waves;
    r.check(accepted == kWave, "runtime refused packets of a wave");
    if (w < kWarmupWaves) continue;
    wave_ns.add(static_cast<std::uint64_t>(dt));
    wave_kpps.push_back(static_cast<double>(kWave) / static_cast<double>(dt) *
                        1e6);
  }
  rt->flush();

  // Exact outcome accounting: the runtime's worker must have made of
  // every wave exactly what the serial reference made of the pool.
  core::NeutralizerStats want;
  for (std::uint64_t w = 0; w < waves; ++w) want += ref.stats;
  const core::NeutralizerStats got = rt->aggregate_stats();
  const auto dev = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
  };
  r.attempted = waves * kWave;
  r.failed = dev(got.data_forwarded, want.data_forwarded) +
             dev(got.data_returned, want.data_returned) +
             dev(got.key_setups, want.key_setups) +
             dev(got.rejected, want.rejected) +
             dev(got.rekeys_stamped, want.rekeys_stamped);
  r.check(got == want, "runtime NeutralizerStats != waves x serial reference");
  const runtime::WorkerCounters wc = rt->stats().total();
  r.check(wc.processed == r.attempted, "runtime processed != submitted");

  // The fast end over waves (kFastEnd): a wave the host slowed costs
  // that wave, not the run.
  r.metric("throughput_kpps", wave_kpps, kFastEnd, "kpps");
  r.metric("latency_p50_us", wave_ns, 100 - kFastEnd, 1e-3, "us");
  r.metric("setup_s", setup_s, 50, "s");
  r.diagnostic("runtime.blocked_waits_per_kpkt",
               static_cast<double>(wc.blocked_waits) * 1e3 /
                   static_cast<double>(wc.submitted),
               "count");
  r.diagnostic("runtime.pkts_per_batch",
               static_cast<double>(wc.processed) /
                   static_cast<double>(wc.batches),
               "pkts");
  r.diagnostic("wave.packets", static_cast<double>(kWave), "pkts", waves);
  rt.reset();
  r.diagnostic("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace nnbench
