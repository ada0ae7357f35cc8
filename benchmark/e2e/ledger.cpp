// The traced run: a per-layer ledger of one workload. It replays the
// workload's own seeded inputs, single-threaded wherever the layer
// allows, through the public entry points of net, runtime, core,
// crypto, sim and scenario, with a span around every call. A traced
// run reports every per-layer metric BENCHMARK.json names, so a layer a
// workload's end-to-end path does not use is still probed, with that
// workload's seeded packets; benchmark/README.md lists which layers are
// on each path. appliance-112 also measures the running appliance's
// capacity, untraced, as the end-to-end cost its layers reconcile with.
//
// Probes (each gets a share of --seconds):
//   net      the appliance path serially: send_batch into an ingest
//            socket, recv_batch with the ingestor's settings,
//            process_batch, send_batch to a sink;
//   runtime  submit_burst / flush / egress pop with the workload's own
//            runtime configuration;
//   core     process_batch on the workload's mix and on single-class
//            bursts (forward, return, reject, setup), plus the
//            benchmark's own parse+TTL+checksum forwarder;
//   crypto   derive_keys_batch, crypt_address_batch, RSA e=3 encrypt;
//   churn    a serial replay of the churn schedule through
//            expire/process/renew/release/rekey_dynamic_sessions;
//   sim      Fig. 1 run_until in 1-simulated-second slices, with and
//            without the churn replay.

#include "core/master_key.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/chacha.hpp"
#include "crypto/rsa.hpp"
#include "net/arena.hpp"
#include "net/shim.hpp"
#include "net/udp.hpp"
#include "runtime/shard_runtime.hpp"
#include "util/bytes.hpp"

#include "bench.hpp"

namespace nnbench {

namespace {

constexpr std::size_t kBurst = 64;
constexpr std::size_t kPoolSize = 4096;
constexpr sim::SimTime kSimSpan = 3 * sim::kSecond;
constexpr sim::SimTime kChurnSpan = 2 * sim::kSecond;

using Deadline = std::int64_t;

Deadline deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Refills `batch` with the next kBurst packets of `pool` (cycling),
/// copying into recycled arena buffers outside any span.
void refill(std::vector<net::Packet>& batch, const PacketMix& pool,
            std::size_t& cursor, net::PacketArena& arena) {
  batch.clear();
  for (std::size_t k = 0; k < kBurst; ++k) {
    batch.push_back(arena.clone(pool.packets[cursor]));
    cursor = (cursor + 1) % pool.packets.size();
  }
}

// ---- net: the appliance path, serially -------------------------------

void probe_net(const PacketMix& own, double seconds, Tracer& tr, Result& r) {
  net::UdpSocket ingest = net::UdpSocket::bind_loopback(0, true);
  net::UdpSocket gen = net::UdpSocket::open();
  net::UdpSocket egress = net::UdpSocket::bind_loopback(0, false);
  net::UdpSocket sink = net::UdpSocket::bind_loopback(0, false);
  if (!ingest.valid() || !gen.valid() || !egress.valid() || !sink.valid()) {
    r.failures.push_back("net probe: cannot open loopback sockets");
    return;
  }
  ingest.set_recv_buffer(8 << 20);
  ingest.set_recv_timeout_ms(50);
  sink.set_recv_buffer(8 << 20);
  sink.set_recv_timeout_ms(50);
  egress.set_send_buffer(4 << 20);

  core::Neutralizer service(service_config(), root_key());
  net::PacketArena arena;
  std::vector<std::span<const std::uint8_t>> bufs;
  std::vector<net::UdpDatagram> dgrams;
  std::vector<net::Packet> batch;
  std::size_t cursor = 0;
  const Deadline end = deadline_after(seconds);
  for (std::uint64_t b = 0; now_ns() < end; ++b) {
    tr.set_burst(b);
    bufs.clear();
    for (std::size_t k = 0; k < kBurst; ++k) {
      bufs.push_back(own.packets[cursor].view());
      cursor = (cursor + 1) % own.packets.size();
    }
    std::size_t sent = 0;
    {
      Span s(tr, "gen.send_batch");
      sent = gen.send_batch(kLoopback, ingest.local_port(), bufs);
      s.items = sent;
    }
    std::size_t kept = 0;
    std::size_t received = 0;
    batch.clear();
    while (received < sent) {
      Span s(tr, "net.recv_batch");
      // The ingestor's settings: 64 datagrams, default buffer size.
      s.items = ingest.recv_batch(dgrams, 64);
      if (s.items == 0) break;
      received += s.items;
      for (net::UdpDatagram& d : dgrams) {
        if (d.truncated || d.bytes.size() < net::kIpv4HeaderSize) continue;
        batch.push_back(net::Packet{std::move(d.bytes)});
      }
    }
    {
      Span s(tr, "core.process_batch");
      s.items = batch.size();
      kept = service.process_batch(batch, 0, &arena);
    }
    bufs.clear();
    for (std::size_t k = 0; k < kept; ++k) bufs.push_back(batch[k].view());
    {
      Span s(tr, "net.send_batch");
      s.items = egress.send_batch(kLoopback, sink.local_port(), bufs);
    }
    std::size_t delivered = 0;
    {
      Span s(tr, "gen.sink_recv");
      while (delivered < kept) {
        const std::size_t n = sink.recv_batch(dgrams, 64, 2048);
        if (n == 0) break;
        delivered += n;
      }
      s.items = delivered;
    }
    r.attempted += sent;
    r.failed += (sent - received) + (kept - delivered);
    // Survivors are freed once sent, as the appliance's transmit thread
    // frees them; only rejected buffers go back to the arena.
    batch.clear();
  }
}

// ---- runtime: the hand-off --------------------------------------------

/// Pops exactly `n` survivors off worker 0's egress lane.
void pop_survivors(runtime::ShardRuntime& rt, std::uint64_t n,
                   std::vector<runtime::EgressItem>& items) {
  runtime::EgressLane lane = rt.egress_lane(0);
  std::uint64_t popped = 0;
  while (popped < n) {
    items.clear();
    popped += lane.pop_burst(items, kBurst);
  }
}

void probe_runtime(const PacketMix& own, bool appliance, double seconds,
                   Tracer& tr, Result& r, runtime::WorkerCounters& counters) {
  // The workload's own runtime: the appliance forwards survivors to a
  // transmit lane (its wave fits the 4096-slot rings, so this thread can
  // pop after the flush); the in-process workloads recycle, with waves
  // eight times their 2048-slot rings, so the producer blocks.
  runtime::RuntimeConfig cfg;
  cfg.max_batch = 64;
  cfg.ring_capacity = appliance ? 4096 : 2048;
  cfg.egress = appliance ? runtime::EgressMode::kForward
                         : runtime::EgressMode::kRecycle;
  const std::size_t wave_size = appliance ? 4096 : 16384;
  std::vector<net::Packet> wave;
  std::vector<runtime::EgressItem> items;
  const auto fill = [&](std::size_t n, std::size_t& cursor) {
    wave.clear();
    for (std::size_t k = 0; k < n; ++k) {
      wave.push_back(net::Packet(own.packets[cursor]));
      cursor = (cursor + 1) % own.packets.size();
    }
  };
  {
    runtime::ShardRuntime rt(1, service_config(), root_key(), cfg);
    runtime::IngressPort port = rt.port(0);
    std::size_t cursor = 0;
    const Deadline end = deadline_after(appliance ? seconds : seconds * 0.7);
    for (std::uint64_t b = 0; now_ns() < end; ++b) {
      tr.set_burst(b);
      fill(wave_size, cursor);
      const std::uint64_t before = rt.stats().total().survivors;
      {
        Span w(tr, "runtime.wave");
        w.items = wave.size();
        {
          Span s(tr, "runtime.submit_burst");
          s.items = port.submit_burst(wave, 0);
        }
        Span s(tr, "runtime.flush");
        rt.flush();
      }
      if (appliance) {
        const std::uint64_t n = rt.stats().total().survivors - before;
        Span s(tr, "runtime.egress_pop");
        s.items = n;
        pop_survivors(rt, n, items);
      }
    }
    counters = rt.stats().total();
    r.attempted += counters.submitted;
    r.failed += counters.submitted - counters.processed;
  }
  if (appliance) return;
  // A recycling runtime has no transmit lane: the egress pop is timed
  // on a forwarding runtime with the appliance's ring size.
  cfg.ring_capacity = 4096;
  cfg.egress = runtime::EgressMode::kForward;
  runtime::ShardRuntime rt(1, service_config(), root_key(), cfg);
  runtime::IngressPort port = rt.port(0);
  std::size_t cursor = 0;
  const Deadline end = deadline_after(seconds * 0.3);
  while (now_ns() < end) {
    fill(4096, cursor);
    const std::uint64_t before = rt.stats().total().survivors;
    port.submit_burst(wave, 0);
    rt.flush();
    const std::uint64_t n = rt.stats().total().survivors - before;
    Span s(tr, "runtime.egress_pop");
    s.items = n;
    pop_survivors(rt, n, items);
  }
}

// ---- core: process_batch per packet class ----------------------------

/// The benchmark's own vanilla forwarder: parse, TTL decrement, header
/// checksum — what the paper compares its 422 kpps against (600 kpps).
void vanilla_forward(net::Packet& p) {
  const net::ParsedPacket parsed = net::parse_packet(p.view());
  (void)parsed;
  --p.bytes[8];
  p.bytes[10] = 0;
  p.bytes[11] = 0;
  const std::uint16_t sum = net::internet_checksum(
      std::span<const std::uint8_t>(p.bytes).subspan(0, net::kIpv4HeaderSize));
  p.bytes[10] = static_cast<std::uint8_t>(sum >> 8);
  p.bytes[11] = static_cast<std::uint8_t>(sum);
}

struct CoreClass {
  const char* span;
  const PacketMix* pool;
  /// Which stats counter every packet of the class must move.
  std::uint64_t core::NeutralizerStats::*counter;
};

void probe_core(const std::vector<CoreClass>& classes, const PacketMix& fwd,
                double seconds, Tracer& tr, Result& r) {
  net::PacketArena arena;
  std::vector<net::Packet> batch;
  const double share = seconds / static_cast<double>(classes.size() + 1);
  std::uint64_t b = 0;
  for (const CoreClass& c : classes) {
    core::Neutralizer service(service_config(), root_key());
    std::size_t cursor = 0;
    std::uint64_t offered = 0;
    const Deadline end = deadline_after(share);
    while (now_ns() < end) {
      tr.set_burst(b++);
      refill(batch, *c.pool, cursor, arena);
      std::size_t kept = 0;
      {
        Span s(tr, c.span);
        s.items = batch.size();
        kept = service.process_batch(batch, 0, &arena);
      }
      offered += batch.size();
      for (std::size_t k = 0; k < kept; ++k) arena.release(std::move(batch[k]));
    }
    r.attempted += offered;
    if (c.counter != nullptr) {
      const std::uint64_t moved = service.stats().*c.counter;
      r.failed += offered - std::min(offered, moved);
    }
  }
  std::size_t cursor = 0;
  const Deadline end = deadline_after(share);
  while (now_ns() < end) {
    tr.set_burst(b++);
    refill(batch, fwd, cursor, arena);
    {
      Span s(tr, "core.vanilla");
      s.items = batch.size();
      for (net::Packet& p : batch) vanilla_forward(p);
    }
    for (net::Packet& p : batch) arena.release(std::move(p));
  }
}

// ---- crypto: the prepass kernels and the setup RSA --------------------

void probe_crypto(const PacketMix& fwd, std::uint64_t seed, double seconds,
                  Tracer& tr, Result& r) {
  const core::MasterKeySchedule sched(root_key());
  const crypto::Cmac keyed(sched.current_key(0));
  std::vector<crypto::KeyDeriveRequest> reqs;
  std::vector<crypto::AddressCryptRequest> addrs;
  for (const net::Packet& p : fwd.packets) {
    net::Packet copy = p;
    const net::ShimPacketView v(copy.mutable_view());
    reqs.push_back({v.nonce(), v.src().value(), false});
    addrs.push_back({{}, v.nonce(), false, v.inner_addr()});
  }
  std::vector<crypto::AesKey> keys(reqs.size());
  std::vector<std::uint32_t> out(reqs.size());
  const Deadline end = deadline_after(seconds * 0.6);
  std::size_t off = 0;
  do {
    const std::span<const crypto::KeyDeriveRequest> rq(reqs.data() + off,
                                                       kBurst);
    {
      Span s(tr, "crypto.derive_keys_batch");
      s.items = kBurst;
      crypto::derive_keys_batch(keyed, rq, keys.data() + off);
    }
    for (std::size_t k = 0; k < kBurst; ++k) addrs[off + k].ks = keys[off + k];
    {
      Span s(tr, "crypto.crypt_address_batch");
      s.items = kBurst;
      crypto::crypt_address_batch({addrs.data() + off, kBurst},
                                  out.data() + off);
    }
    off = (off + kBurst) % (reqs.size() - reqs.size() % kBurst);
  } while (now_ns() < end);
  // Spot-check the batch kernels against the scalar helpers.
  for (std::size_t k = 0; k < kBurst; ++k) {
    const bool ok = keys[k] == crypto::derive_source_key(
                                   keyed, reqs[k].nonce, reqs[k].src_ip) &&
                    out[k] == crypto::crypt_address(keys[k], addrs[k].nonce,
                                                    false, addrs[k].addr);
    r.check(ok, "crypto: batch kernel differs from the scalar helper");
  }

  crypto::ChaChaRng rng(seed);
  const crypto::RsaPrivateKey onetime = crypto::rsa_generate(rng, 512, 3);
  crypto::RsaScratch scratch;
  std::vector<std::uint8_t> ct;
  std::array<std::uint8_t, 24> msg{};
  const Deadline rsa_end = deadline_after(seconds * 0.4);
  while (now_ns() < rsa_end) {
    Span s(tr, "crypto.rsa_encrypt");
    s.items = 16;
    for (int k = 0; k < 16; ++k) {
      crypto::rsa_encrypt_into(rng, onetime.pub, msg, scratch, ct);
    }
  }
  r.check(crypto::rsa_decrypt(onetime, ct).has_value(),
          "crypto: RSA ciphertext does not decrypt");
}

// ---- churn: the §3.4 control plane, serially ---------------------------

struct ChurnTable {
  std::size_t max_probe = 0;
  double load_factor = 0;
  std::uint64_t events = 0;
};

ChurnTable probe_churn(std::uint64_t seed, double seconds, Tracer& tr,
                       Result& r) {
  const sim::SessionChurnConfig ccfg = churn_config(seed, kChurnSpan);
  const auto schedule = sim::churn_schedule(ccfg);
  const net::Ipv4Addr customer = scenario::kGoogleAddr;
  ChurnTable table;
  const Deadline end = deadline_after(seconds);
  do {
    core::NeutralizerConfig cfg = service_config();
    cfg.dynamic_pool = net::Ipv4Prefix::from_string("100.64.0.0/16");
    cfg.dyn_lease = ccfg.lease;
    // One master-key epoch per storm interval, so every storm finds the
    // resident sessions a key behind and rekeys them all (Fig. 1's box
    // keeps the 1-hour default, where a storm only scans the table).
    cfg.rotation_period = ccfg.rekey_interval;
    core::Neutralizer service(cfg, root_key());
    std::vector<std::uint32_t> addr_of(ccfg.sessions, 0);
    std::uint64_t arrivals = 0;
    std::uint64_t answered = 0;
    std::size_t i = 0;
    while (i < schedule.size()) {
      if (schedule[i].kind == sim::SessionEvent::Kind::kRekeyStorm) {
        const sim::SessionEvent& ev = schedule[i++];
        service.expire_dynamic_sessions(ev.at);
        Span s(tr, "core.rekey_storm");
        s.items = service.rekey_dynamic_sessions(ev.at);
        continue;
      }
      Span s(tr, "core.churn");
      for (std::size_t n = 0; n < 256 && i < schedule.size() &&
                              schedule[i].kind !=
                                  sim::SessionEvent::Kind::kRekeyStorm;
           ++n, ++i) {
        const sim::SessionEvent& ev = schedule[i];
        service.expire_dynamic_sessions(ev.at);
        ++s.items;
        switch (ev.kind) {
          case sim::SessionEvent::Kind::kArrive: {
            net::ShimHeader shim;
            shim.type = net::ShimType::kDynAddrRequest;
            shim.nonce = ev.session;
            ++arrivals;
            auto resp = service.process(
                net::make_shim_packet(customer, kAnycast, shim, {}), ev.at);
            if (resp.has_value()) {
              const auto parsed = net::parse_packet(resp->view());
              ByteReader rd(parsed.payload);
              addr_of[ev.session] = rd.u32();
              ++answered;
            }
            break;
          }
          case sim::SessionEvent::Kind::kRenew:
            if (addr_of[ev.session] != 0) {
              service.renew_dynamic(net::Ipv4Addr(addr_of[ev.session]), ev.at);
            }
            break;
          case sim::SessionEvent::Kind::kDepart:
            if (addr_of[ev.session] != 0) {
              service.release_dynamic(net::Ipv4Addr(addr_of[ev.session]));
              addr_of[ev.session] = 0;
            }
            break;
          case sim::SessionEvent::Kind::kRekeyStorm:
            break;
        }
      }
    }
    const auto* alloc = service.dynamic_allocator();
    const auto& k = alloc->counters();
    r.attempted += arrivals;
    r.failed += arrivals - answered;
    r.check(k.allocated ==
                k.released + k.expired + service.dynamic_sessions(),
            "churn replay: allocated != released + expired + resident");
    table.max_probe = alloc->table().max_probe_length();
    table.load_factor = alloc->table().load_factor();
    table.events += schedule.size();
  } while (now_ns() < end);
  return table;
}

// ---- sim: Fig. 1 in 1-simulated-second slices --------------------------

struct SimRun {
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::uint64_t churn_events = 0;
  double uplink_drop_frac = 0;
};

SimRun probe_sim(std::uint64_t seed, bool churn, Tracer& tr) {
  scenario::Fig1 fig(fig1_config(seed, kSimSpan, churn));
  schedule_fig1(fig, kSimSpan);
  const char* name = churn ? "sim.run_until" : "sim.run_until.plain";
  std::uint64_t before = 0;
  for (sim::SimTime t = sim::kSecond; t <= kSimSpan + sim::kSecond;
       t += sim::kSecond) {
    Span s(tr, name);
    fig.engine.run_until(t);
    const std::uint64_t now_delivered = fig1_delivered(fig);
    s.items = now_delivered - before;
    before = now_delivered;
  }
  SimRun out;
  out.delivered = before;
  out.events = fig.engine.executed();
  if (auto* w = fig.churn_workload()) out.churn_events = w->delivered();
  const sim::LinkStats& up = fig1_uplink(fig).stats();
  out.uplink_drop_frac = static_cast<double>(up.dropped_packets) /
                         static_cast<double>(up.tx_packets + up.dropped_packets);
  return out;
}

}  // namespace

Result run_ledger(const Options& opt) {
  Result r;
  // Off CPU 0, where the runtime probe's worker is placed.
  (void)runtime::pin_current_thread(1);
  set_alloc_counting(true);
  Tracer tr;
  const bool appliance = opt.workload == "appliance-112";
  const std::uint32_t size = appliance ? 112 : 0;
  // The workload's own packets. fig1-churn offers the neutralizer no
  // packets of its own (its flows are plain), so its packet layers
  // replay the datapath mix under its seed.
  const PacketMix own =
      appliance ? make_mix(opt.seed, 256, appliance_shape())
      : opt.workload == "hostile-mix"
          ? make_mix(opt.seed, 16384, hostile_shape())
          : make_mix(opt.seed, 16384, datapath_shape());
  const auto pool = [&](PacketClass c) {
    return make_mix(opt.seed + 1 + static_cast<std::uint64_t>(c), kPoolSize,
                    single_class(c, size));
  };
  const PacketMix fwd = pool(PacketClass::kForward);
  const PacketMix ret = pool(PacketClass::kReturn);
  const PacketMix bad = pool(PacketClass::kMalformed);
  const PacketMix setup = pool(PacketClass::kSetup);

  const double t = opt.seconds;
  probe_net(own, t * 0.15, tr, r);
  runtime::WorkerCounters rc;
  probe_runtime(own, appliance, t * 0.15, tr, r, rc);
  using S = core::NeutralizerStats;
  probe_core({{"core.mixed", &own, nullptr},
              {"core.forward", &fwd, &S::data_forwarded},
              {"core.return", &ret, &S::data_returned},
              {"core.reject", &bad, &S::rejected},
              {"core.setup", &setup, &S::key_setups}},
             fwd, t * 0.4, tr, r);
  probe_crypto(fwd, opt.seed, t * 0.1, tr, r);
  const ChurnTable churn = probe_churn(opt.seed, t * 0.1, tr, r);
  const SimRun full = probe_sim(opt.seed, true, tr);
  probe_sim(opt.seed, false, tr);
  set_alloc_counting(false);

  const auto per_call = [&](const char* n) {
    const Tracer::Totals x = tr.totals(n);
    return x.count == 0 ? 0.0
                        : static_cast<double>(x.total_ns) /
                              static_cast<double>(x.count);
  };
  const auto per_item_total = [&](const char* n) {
    const Tracer::Totals x = tr.totals(n);
    return x.items == 0 ? 0.0
                        : static_cast<double>(x.total_ns) /
                              static_cast<double>(x.items);
  };
  const auto layer = [&](const char* metric, double value, const char* unit,
                         const char* span) {
    r.metric(metric, value, unit, value, value, tr.totals(span).count);
  };
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  const Tracer::Totals recv = tr.totals("net.recv_batch");
  const Tracer::Totals send = tr.totals("net.send_batch");
  layer("net.recv_batch.us_per_call", per_call("net.recv_batch") * 1e-3, "us",
        "net.recv_batch");
  layer("net.recv_batch.dgrams_per_call",
        ratio(static_cast<double>(recv.items), static_cast<double>(recv.count)),
        "dgrams", "net.recv_batch");
  layer("net.recv_batch.alloc_bytes_per_dgram",
        ratio(static_cast<double>(recv.alloc_bytes),
              static_cast<double>(recv.items)),
        "B", "net.recv_batch");
  layer("net.send_batch.ns_per_dgram", tr.ns_per_item("net.send_batch"), "ns",
        "net.send_batch");
  layer("net.send_batch.allocs_per_call",
        ratio(static_cast<double>(send.allocs), static_cast<double>(send.count)),
        "count", "net.send_batch");

  layer("runtime.submit.ns_per_pkt", tr.ns_per_item("runtime.submit_burst"),
        "ns", "runtime.submit_burst");
  layer("runtime.flush.us", per_call("runtime.flush") * 1e-3, "us",
        "runtime.flush");
  layer("runtime.blocked_waits_per_kpkt",
        ratio(static_cast<double>(rc.blocked_waits) * 1e3,
              static_cast<double>(rc.submitted)),
        "count", "runtime.submit_burst");
  layer("runtime.pkts_per_batch",
        ratio(static_cast<double>(rc.processed), static_cast<double>(rc.batches)),
        "pkts", "runtime.flush");
  layer("runtime.egress_pop.ns_per_item", tr.ns_per_item("runtime.egress_pop"),
        "ns", "runtime.egress_pop");

  layer("core.forward.ns_per_pkt", tr.ns_per_item("core.forward"), "ns",
        "core.forward");
  layer("core.return.ns_per_pkt", tr.ns_per_item("core.return"), "ns",
        "core.return");
  layer("core.mixed.ns_per_pkt", tr.ns_per_item("core.mixed"), "ns",
        "core.mixed");
  layer("core.reject.ns_per_pkt", tr.ns_per_item("core.reject"), "ns",
        "core.reject");
  layer("core.setup.us_per_pkt", tr.ns_per_item("core.setup") * 1e-3, "us",
        "core.setup");
  const Tracer::Totals mixed = tr.totals("core.mixed");
  layer("core.allocs_per_kpkt",
        ratio(static_cast<double>(mixed.allocs) * 1e3,
              static_cast<double>(mixed.items)),
        "count", "core.mixed");
  layer("core.vs_vanilla_ratio",
        ratio(tr.ns_per_item("core.vanilla"), tr.ns_per_item("core.forward")),
        "ratio", "core.vanilla");

  layer("crypto.rsa_setup.us_per_op", tr.ns_per_item("crypto.rsa_encrypt") * 1e-3,
        "us", "crypto.rsa_encrypt");
  layer("crypto.derive_keys.ns_per_key",
        tr.ns_per_item("crypto.derive_keys_batch"), "ns",
        "crypto.derive_keys_batch");
  layer("crypto.crypt_address.ns_per_addr",
        tr.ns_per_item("crypto.crypt_address_batch"), "ns",
        "crypto.crypt_address_batch");

  layer("core.churn.ns_per_event", tr.ns_per_item("core.churn"), "ns",
        "core.churn");
  layer("core.rekey_storm.ns_per_session", tr.ns_per_item("core.rekey_storm"),
        "ns", "core.rekey_storm");
  layer("core.table.max_probe", static_cast<double>(churn.max_probe), "count",
        "core.churn");
  layer("core.table.load_factor", churn.load_factor, "ratio", "core.churn");

  const Tracer::Totals run = tr.totals("sim.run_until");
  layer("sim.events_per_packet",
        ratio(static_cast<double>(full.events),
              static_cast<double>(full.delivered)),
        "events", "sim.run_until");
  layer("sim.ns_per_event",
        ratio(static_cast<double>(run.total_ns),
              static_cast<double>(full.events)),
        "ns", "sim.run_until");
  layer("sim.uplink_drop_frac", full.uplink_drop_frac, "ratio",
        "sim.run_until");

  // Reconciliation: the layers on the workload's path, per packet,
  // against the workload's end-to-end cost per packet.
  double reconcile = 0;
  const char* reconcile_span = "runtime.wave";
  if (appliance) {
    reconcile_span = "net.recv_batch";
    // The serial path's layers (receive, neutralize, transmit) per
    // datagram against what one datagram costs the running appliance:
    // 1 / its capacity, measured with nothing traced. The appliance
    // runs the three stages on three threads at once, so a datagram
    // costs it only its slowest stage; benchmark/README.md records what
    // the ratio reads and where the gap comes from.
    const double capacity_kpps =
        appliance_capacity_kpps(opt.seed, t * 0.1, r);
    r.diagnostic("appliance.capacity_kpps", capacity_kpps, "kpps");
    reconcile = ratio(tr.ns_per_item("net.recv_batch") +
                          tr.ns_per_item("core.process_batch") +
                          tr.ns_per_item("net.send_batch"),
                      ratio(1e6, capacity_kpps));
  } else if (opt.workload == "fig1-churn") {
    reconcile_span = "sim.run_until";
    // Plain simulation per packet plus the control plane per churn
    // event, against the full simulation.
    const double churn_ns_per_event = ratio(
        static_cast<double>(tr.totals("core.churn").total_ns +
                            tr.totals("core.rekey_storm").total_ns),
        static_cast<double>(churn.events));
    const double layers =
        per_item_total("sim.run_until.plain") *
            static_cast<double>(full.delivered) +
        churn_ns_per_event * static_cast<double>(full.churn_events);
    reconcile = ratio(layers, static_cast<double>(run.total_ns));
  } else {
    // The worker's neutralize cost per packet against the runtime's
    // wall time per packet (submit_burst .. flush).
    reconcile = ratio(tr.ns_per_item("core.mixed"),
                      per_item_total("runtime.wave"));
  }
  layer("trace.reconcile_ratio", reconcile, "ratio", reconcile_span);

  if (!opt.spans_path.empty()) {
    r.check(tr.write(opt.spans_path), "cannot write spans to " + opt.spans_path);
  }
  return r;
}

}  // namespace nnbench
