// appliance-112: the paper's 112-byte DataForward packets over 256 flows
// through the whole UDP appliance — UdpIngestor -> ShardRuntime (one
// queue, one worker, kForward) -> UdpEgressor -> a sink socket, all on
// loopback.
//
// The load is open loop from one generator thread: the first third of
// the run at 50 kpps (below the knee; latency is measured here, from
// each datagram's scheduled send time to its arrival at the sink), the
// rest at 300 kpps (overload; capacity is what the appliance transmits).
// The generator sends with sendmmsg from a fixed ring of buffers,
// stamping sequence number and due time into the last 8 payload bytes
// (the neutralizer never touches the payload), and drains the sink with
// non-blocking recvmmsg in the same thread. Threads: generator, ingest
// reader, worker, transmit = 4.
#include <netinet/in.h>
#include <sys/socket.h>

#include <cstring>
#include <memory>

#include "net/udp.hpp"
#include "runtime/shard_runtime.hpp"
#include "runtime/udp_egress.hpp"
#include "runtime/udp_ingest.hpp"

#include "bench.hpp"

namespace nnbench {

namespace {

constexpr std::size_t kDatagram = 112;
constexpr std::size_t kStamp = 8;  // u32 seq, u32 due time (ns, mod 2^32)
constexpr std::size_t kSendBatch = 32;
constexpr std::size_t kRecvBatch = 64;
constexpr double kLowRate = 50e3;
constexpr double kHighRate = 300e3;
constexpr std::int64_t kWarmupNs = 500'000'000;
constexpr std::int64_t kBinNs = 100'000'000;
// Each teardown waits out the ingest reader's 50 ms receive timeout, so
// a repetition costs ~50 ms of wall time beyond the set-up it measures.
constexpr int kSetupReps = 21;

/// The appliance under test. Members are declared in dependency order;
/// the destructor tears down in the order examples/udp_appliance.cpp
/// uses (feeds quiet, runtime drained, egress drained) so no worker can
/// block on a lane nobody drains.
struct Appliance {
  explicit Appliance(std::uint16_t sink_port)
      : runtime(1, service_config(), root_key(), runtime_config()),
        ingest(runtime, ingest_config()),
        egress(runtime, egress_config(sink_port)) {}
  ~Appliance() {
    ingest.stop();
    runtime.flush();
    egress.flush();
    egress.stop();
    runtime.stop();
  }
  Appliance(const Appliance&) = delete;
  Appliance& operator=(const Appliance&) = delete;

  static runtime::RuntimeConfig runtime_config() {
    runtime::RuntimeConfig cfg;
    cfg.ring_capacity = 4096;
    cfg.max_batch = 64;
    cfg.egress = runtime::EgressMode::kForward;
    return cfg;
  }
  static runtime::UdpIngestConfig ingest_config() {
    runtime::UdpIngestConfig cfg;
    cfg.rcvbuf_bytes = 8 << 20;
    return cfg;
  }
  static runtime::UdpEgressConfig egress_config(std::uint16_t sink_port) {
    runtime::UdpEgressConfig cfg;
    cfg.dest_port = sink_port;
    return cfg;
  }

  runtime::ShardRuntime runtime;
  runtime::UdpIngestor ingest;
  runtime::UdpEgressor egress;
};

struct Phase {
  double rate = 0;
  std::int64_t start = 0;  // ns since the generator's origin
  std::int64_t end = 0;
  std::uint64_t sent = 0;
  LogHistogram lateness_ns;
};

std::uint32_t load_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// The load generator and sink: one thread, fixed buffers, raw
/// sendmmsg/recvmmsg (the generator is not the system under test).
class Generator {
 public:
  Generator(const PacketMix& templates, const std::vector<net::Packet>& want,
            int tx_fd, int sink_fd, const Appliance& app)
      : want_(want),
        tx_fd_(tx_fd),
        sink_fd_(sink_fd),
        ingest_(app.ingest),
        egress_(app.egress) {
    slots_.resize(templates.packets.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      std::memcpy(slots_[i].data(), templates.packets[i].bytes.data(),
                  kDatagram);
    }
    dest_.sin_family = AF_INET;
    dest_.sin_port = htons(app.ingest.port());
    dest_.sin_addr.s_addr = htonl(kLoopback.value());
    for (std::size_t i = 0; i < kRecvBatch; ++i) {
      recv_iov_[i] = {recv_bufs_[i].data(), recv_bufs_[i].size()};
      recv_msgs_[i] = mmsghdr{};
      recv_msgs_[i].msg_hdr.msg_iov = &recv_iov_[i];
      recv_msgs_[i].msg_hdr.msg_iovlen = 1;
    }
    origin_ = now_ns();
  }

  /// Runs one open-loop phase. Each turn sends at most one batch of the
  /// datagrams that have come due, then reads the sink once; with
  /// `drain_when_idle` the sink is read only on turns with nothing due,
  /// so sending keeps priority under overload. When `sample_from` is not
  /// negative, the appliance's counters are sampled every kBinNs from
  /// then on.
  void run_phase(Phase& ph, bool drain_when_idle, std::int64_t sample_from) {
    const double ns_per_pkt = 1e9 / ph.rate;
    std::int64_t next_sample = sample_from;
    for (;;) {
      const std::int64_t now = now_ns() - origin_;
      if (next_sample >= 0 && now >= next_sample) {
        samples.push_back({now, egress_.stats_total().transmitted,
                           ingest_.stats_total().datagrams, next_seq_});
        next_sample += kBinNs;
      }
      if (now >= ph.end) break;
      const auto due = static_cast<std::uint64_t>(
                           static_cast<double>(now - ph.start) / ns_per_pkt) +
                       1;
      if (ph.sent < due) {
        send(ph,
             static_cast<std::size_t>(
                 std::min<std::uint64_t>(kSendBatch, due - ph.sent)),
             ns_per_pkt);
        if (drain_when_idle) continue;
      }
      drain();
    }
  }

  /// Drains the sink until it has been empty for `quiet_ns`.
  void drain_until_quiet(std::int64_t quiet_ns) {
    std::int64_t last = now_ns();
    while (now_ns() - last < quiet_ns) {
      if (drain() > 0) last = now_ns();
    }
  }

  [[nodiscard]] std::int64_t elapsed() const { return now_ns() - origin_; }

  /// What the appliance transmitted per second in each sampled bin,
  /// from its own egress counter, so a sink the generator drains late
  /// cannot bias it.
  [[nodiscard]] std::vector<double> bin_kpps() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const Sample& a = samples[i - 1];
      const Sample& b = samples[i];
      out.push_back(static_cast<double>(b.transmitted - a.transmitted) /
                    (static_cast<double>(b.at - a.at) * 1e-9) / 1e3);
    }
    return out;
  }

  /// Whether the sampled window overloaded the appliance: the ingest
  /// socket dropped at least 5% of what was offered in it. Computed in
  /// doubles: the ingestor may read more in the window than was offered
  /// in it (datagrams already queued at the first sample), and that
  /// unsaturated case must fail, not wrap around.
  [[nodiscard]] bool saturated() const {
    if (samples.size() < 2) return false;
    const Sample& a = samples.front();
    const Sample& b = samples.back();
    const double offered = static_cast<double>(b.sent - a.sent);
    const double read = static_cast<double>(b.accepted - a.accepted);
    return offered - read >= offered / 20;
  }

  // Outcome counters, read after the run.
  std::uint64_t received = 0;
  std::uint64_t matched = 0;
  std::uint64_t low_phase_received = 0;
  std::uint64_t low_phase_last_seq = 0;  // exclusive
  LogHistogram latency_ns;
  std::uint64_t latency_from_seq = 0;  // earlier datagrams are warm-up
  /// The appliance's counters, sampled every kBinNs of the overload
  /// window, with the generator's own send count.
  struct Sample {
    std::int64_t at;
    std::uint64_t transmitted;  // egress: handed to the kernel
    std::uint64_t accepted;     // ingest: read off the socket
    std::uint64_t sent;         // generator: offered
  };
  std::vector<Sample> samples;
  std::uint64_t send_errors = 0;

 private:
  void send(Phase& ph, std::size_t n, double ns_per_pkt) {
    const auto due_of = [&](std::size_t k) {
      return ph.start + static_cast<std::int64_t>(
                            static_cast<double>(ph.sent + k) * ns_per_pkt);
    };
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t seq = next_seq_ + k;
      auto& slot = slots_[seq % slots_.size()];
      store_u32(slot.data() + kDatagram - kStamp,
                static_cast<std::uint32_t>(seq));
      store_u32(slot.data() + kDatagram - 4,
                static_cast<std::uint32_t>(due_of(k)));
      send_iov_[k] = {slot.data(), kDatagram};
      send_msgs_[k] = mmsghdr{};
      send_msgs_[k].msg_hdr.msg_name = &dest_;
      send_msgs_[k].msg_hdr.msg_namelen = sizeof(dest_);
      send_msgs_[k].msg_hdr.msg_iov = &send_iov_[k];
      send_msgs_[k].msg_hdr.msg_iovlen = 1;
    }
    const std::int64_t at = now_ns() - origin_;
    std::size_t done = 0;
    while (done < n) {
      const int got = ::sendmmsg(tx_fd_, send_msgs_.data() + done,
                                 static_cast<unsigned>(n - done), 0);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        ++send_errors;
        break;
      }
      done += static_cast<std::size_t>(got);
    }
    for (std::size_t k = 0; k < n; ++k) {
      ph.lateness_ns.add(static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, at - due_of(k))));
    }
    ph.sent += n;
    next_seq_ += n;
  }

  std::size_t drain() {
    const int n = ::recvmmsg(sink_fd_, recv_msgs_.data(), kRecvBatch,
                             MSG_DONTWAIT, nullptr);
    if (n <= 0) return 0;
    const std::int64_t at = now_ns() - origin_;
    for (int i = 0; i < n; ++i) {
      const std::uint8_t* d = recv_bufs_[static_cast<std::size_t>(i)].data();
      const std::size_t len = recv_msgs_[static_cast<std::size_t>(i)].msg_len;
      ++received;
      if (len != kDatagram) continue;
      const std::uint32_t seq = load_u32(d + kDatagram - kStamp);
      const std::uint32_t due = load_u32(d + kDatagram - 4);
      const net::Packet& expect = want_[seq % want_.size()];
      if (std::memcmp(d, expect.bytes.data(), kDatagram - kStamp) == 0) {
        ++matched;
      }
      if (seq < low_phase_last_seq) {
        ++low_phase_received;
        // Latency is modular in 32-bit nanoseconds: exact for any
        // latency under 4.29 s.
        if (seq >= latency_from_seq) {
          latency_ns.add(static_cast<std::uint32_t>(at) - due);
        }
      }
    }
    return static_cast<std::size_t>(n);
  }

  const std::vector<net::Packet>& want_;
  int tx_fd_;
  int sink_fd_;
  const runtime::UdpIngestor& ingest_;
  const runtime::UdpEgressor& egress_;
  sockaddr_in dest_{};
  std::int64_t origin_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<std::array<std::uint8_t, kDatagram>> slots_;
  std::array<mmsghdr, kSendBatch> send_msgs_{};
  std::array<iovec, kSendBatch> send_iov_{};
  std::array<std::array<std::uint8_t, 2048>, kRecvBatch> recv_bufs_{};
  std::array<mmsghdr, kRecvBatch> recv_msgs_{};
  std::array<iovec, kRecvBatch> recv_iov_{};
};

/// What every appliance measurement needs before the appliance exists:
/// the seeded templates, the serial neutralizer's output for each, and
/// the generator's sending and sink sockets.
struct Rig {
  PacketMix templates;
  Reference ref;
  net::UdpSocket sink;
  net::UdpSocket tx;
};

/// Builds the rig for `seed` and pins the calling thread to the
/// generator's CPU: worker, ingest reader and transmit thread take CPUs
/// 0..2 under the compact placement, the generator the next one.
/// Records a failure and returns false when the rig is unusable.
bool make_rig(std::uint64_t seed, Rig& rig, Result& r) {
  if (!net::UdpSocket::supported()) {
    r.failures.push_back("no socket layer on this platform");
    return false;
  }
  rig.templates = make_mix(seed, 256, appliance_shape());
  rig.ref = serial_reference(rig.templates, 64);
  check_reference(rig.templates, rig.ref.stats, r);
  r.check(rig.ref.outputs.size() == rig.templates.packets.size(),
          "reference: not every template forwarded");
  if (!r.failures.empty()) return false;

  rig.sink = net::UdpSocket::bind_loopback(0, false);
  rig.tx = net::UdpSocket::open();
  if (!rig.sink.valid() || !rig.tx.valid()) {
    r.failures.push_back("cannot open generator sockets: " +
                         rig.sink.error() + rig.tx.error());
    return false;
  }
  rig.sink.set_recv_buffer(8 << 20);
  rig.tx.set_send_buffer(4 << 20);
  (void)runtime::pin_current_thread(runtime::placement_cpu_for_egress(
      Appliance::runtime_config(), 1, 1, 1));
  return true;
}

bool start(Appliance& app, Result& r) {
  if (app.egress.start() && app.ingest.start()) return true;
  r.failures.push_back("appliance failed to start: " + app.egress.error() +
                       app.ingest.error());
  return false;
}

}  // namespace

double appliance_capacity_kpps(std::uint64_t seed, double seconds,
                               Result& r) {
  Rig rig;
  if (!make_rig(seed, rig, r)) return 0;
  Appliance app(rig.sink.local_port());
  if (!start(app, r)) return 0;
  Generator gen(rig.templates, rig.ref.outputs, rig.tx.fd(), rig.sink.fd(),
                app);
  // Twice the end-to-end run's overload rate, more than one thread can
  // send: a fresh appliance can carry 300 kpps here, and a capacity the
  // generator limits is no end-to-end cost.
  Phase high;
  high.rate = 2 * kHighRate;
  high.start = gen.elapsed();
  high.end = high.start + static_cast<std::int64_t>(seconds * 1e9);
  gen.run_phase(high, true, high.start + kWarmupNs);
  gen.drain_until_quiet(20'000'000);
  r.check(gen.matched == gen.received,
          "sink: a datagram differs from the serial neutralizer's output");
  r.check(gen.send_errors == 0, "generator: sendmmsg failed");
  r.check(gen.saturated(), "capacity probe did not saturate the appliance");
  return percentile(gen.bin_kpps(), kFastEnd);
}

Result run_appliance(const Options& opt) {
  Result r;
  Rig rig;
  if (!make_rig(opt.seed, rig, r)) return r;
  // Set-up is timed on the generator's CPU.
  std::vector<double> setup_s;
  std::unique_ptr<Appliance> app;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    app.reset();
    const std::int64_t t0 = now_ns();
    app = std::make_unique<Appliance>(rig.sink.local_port());
    const bool started = start(*app, r);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (!started) return r;
  }
  Generator gen(rig.templates, rig.ref.outputs, rig.tx.fd(), rig.sink.fd(),
                *app);
  const auto total_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t t0 = gen.elapsed();
  Phase low;
  low.rate = kLowRate;
  low.start = t0;
  low.end = t0 + total_ns / 3;
  Phase high;
  high.rate = kHighRate;
  high.start = low.end;
  high.end = t0 + total_ns;
  gen.latency_from_seq = static_cast<std::uint64_t>(
      kLowRate * static_cast<double>(kWarmupNs) * 1e-9);
  gen.low_phase_last_seq = UINT64_MAX;

  gen.run_phase(low, false, -1);
  gen.low_phase_last_seq = low.sent;  // the run starts at sequence 0
  gen.run_phase(high, true, high.start + kWarmupNs);

  // Let the pipe run dry: every datagram the ingestor accepted is
  // processed and transmitted, and the sink has drained it.
  gen.drain_until_quiet(50'000'000);
  app->ingest.stop();
  app->runtime.flush();
  app->egress.flush();
  gen.drain_until_quiet(20'000'000);
  const runtime::UdpQueueStats in = app->ingest.stats_total();
  const runtime::WorkerCounters rt = app->runtime.stats().total();
  const runtime::UdpEgressStats out = app->egress.stats_total();
  app.reset();

  // Stage accounting as in examples/udp_appliance.cpp, plus the sink.
  r.check(in.datagrams == in.submitted + in.rejected + in.runts + in.truncated,
          "ingest: received datagrams not fully accounted");
  r.check(rt.processed == in.submitted, "runtime: processed != submitted");
  r.check(rt.survivors == rt.processed, "runtime: a valid forward was dropped");
  r.check(out.popped == rt.survivors && rt.egress_dropped == 0,
          "survivors lost between worker and transmit lane");
  r.check(out.transmitted + out.send_failures == out.popped,
          "egress: popped survivors not fully accounted");
  r.check(gen.received <= out.transmitted, "sink: more datagrams than sent");
  r.check(gen.matched == gen.received,
          "sink: a datagram differs from the serial neutralizer's output");
  r.check(gen.low_phase_received == low.sent,
          "50 kpps phase lost datagrams (below the knee nothing may drop)");
  r.check(gen.send_errors == 0, "generator: sendmmsg failed");
  // Generator validity: each phase offers >= 97% of its rate and keeps
  // its schedule (median lateness <= 100 us), so the generator is never
  // the limit. Lateness p99 is reported, not gated: a shared virtual
  // machine can lose a vCPU for milliseconds at a time (see README),
  // which shows in the tail of any thread's schedule and in the latency
  // tail alike. The capacity number additionally needs the appliance
  // saturated.
  for (const Phase* ph : {&low, &high}) {
    const double secs = static_cast<double>(ph->end - ph->start) * 1e-9;
    r.check(static_cast<double>(ph->sent) / secs >= 0.97 * ph->rate,
            "generator: achieved rate below 97% of target");
    r.check(ph->lateness_ns.percentile(50) <= 100e3,
            "generator: median send lateness above 100 us");
  }
  r.check(gen.saturated(), "overload phase did not saturate the appliance");
  // An operation is a datagram the appliance accepted; it fails when it
  // is not transmitted or reaches the sink altered. Datagrams the sink
  // socket itself dropped while the generator was busy sending are the
  // generator's, reported as gen.sink_drops.
  r.attempted = in.datagrams;
  r.failed = (in.datagrams - std::min(in.datagrams, out.transmitted)) +
             (gen.received - gen.matched);

  // Capacity: the fast end (kFastEnd) over 100 ms bins of what the
  // appliance transmitted per second while offered more than it can
  // carry; a bin the host slowed costs that bin, not the run.
  r.metric("throughput_kpps", gen.bin_kpps(), kFastEnd, "kpps");
  r.metric("latency_p50_us", gen.latency_ns, 50, 1e-3, "us");
  r.metric("setup_s", setup_s, 50, "s");
  r.diagnostic("peak_rss_mb", peak_rss_mb(), "MB");
  for (const auto& [name, ph] :
       {std::pair<const char*, const Phase*>{"low", &low}, {"high", &high}}) {
    const double secs = static_cast<double>(ph->end - ph->start) * 1e-9;
    r.diagnostic(std::string("gen.offered_kpps.") + name,
                 static_cast<double>(ph->sent) / secs / 1e3, "kpps", ph->sent);
    r.diagnostic(std::string("gen.lateness_p50_us.") + name,
                 ph->lateness_ns.percentile(50) * 1e-3, "us",
                 ph->lateness_ns.count());
    r.diagnostic(std::string("gen.lateness_p99_us.") + name,
                 ph->lateness_ns.percentile(99) * 1e-3, "us",
                 ph->lateness_ns.count());
  }
  r.diagnostic("appliance.latency_p99_us", gen.latency_ns.percentile(99) * 1e-3,
               "us", gen.latency_ns.count());
  r.diagnostic("appliance.latency_p999_us",
               gen.latency_ns.percentile(99.9) * 1e-3, "us",
               gen.latency_ns.count());
  r.diagnostic("gen.sink_drops", static_cast<double>(out.transmitted - gen.received),
               "count");
  r.diagnostic("appliance.kernel_drop_frac",
               1.0 - static_cast<double>(in.datagrams) /
                         static_cast<double>(low.sent + high.sent),
               "ratio", low.sent + high.sent);
  return r;
}

}  // namespace nnbench
