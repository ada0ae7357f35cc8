// fig1-churn: the Fig. 1 topology as a whole-system simulation. Two
// plain IMIX flows cross a congested 400 Mbps AT&T uplink while the
// §3.4 session control plane replays SessionChurnWorkload at the
// 2-shard box. The flows are plain, not neutralized: a one-way
// neutralized flow resends the RSA key transport on every packet, so
// its receiver would pay an RSA-1024 decrypt per packet and the run
// would measure RSA, not the simulator.
//
// The run repeats one fixed simulated span until its wall time is
// spent; each repetition rebuilds the scenario, so set-up is measured
// once per repetition and every repetition must deliver exactly the
// same counts (the simulator is deterministic for a seed).
#include "runtime/shard_runtime.hpp"

#include "bench.hpp"

namespace nnbench {

namespace {

constexpr sim::SimTime kSpan = 5 * sim::kSecond;
constexpr sim::SimTime kTail = 200 * sim::kMillisecond;
constexpr sim::SimTime kSlice = 100 * sim::kMillisecond;
constexpr double kFlowPps = 100e3;

struct RepOutcome {
  std::uint64_t delivered = 0;
  scenario::Fig1::ChurnCounters churn;
  core::DynSessionCounters sessions;
  core::NeutralizerStats service;
  std::uint64_t events = 0;

  bool operator==(const RepOutcome& o) const {
    return delivered == o.delivered && churn.arrivals == o.churn.arrivals &&
           churn.responses == o.churn.responses &&
           churn.renews == o.churn.renews &&
           churn.departs == o.churn.departs && churn.storms == o.churn.storms &&
           churn.unmapped == o.churn.unmapped && sessions == o.sessions &&
           service == o.service && events == o.events;
  }
};

}  // namespace

sim::SessionChurnConfig churn_config(std::uint64_t seed, sim::SimTime span) {
  sim::SessionChurnConfig c;
  c.arrivals_per_second = 20e3;
  c.sessions = static_cast<std::size_t>(
      c.arrivals_per_second * static_cast<double>(span) / sim::kSecond);
  c.poisson = true;
  c.lease = 200 * sim::kMillisecond;
  c.renew_probability = 0.5;
  c.renewal_jitter = 0.25;
  c.max_renewals = 4;
  c.depart_probability = 0.5;
  c.rekey_interval = sim::kSecond;
  c.horizon = span;
  c.seed = seed;
  return c;
}

scenario::Fig1Config fig1_config(std::uint64_t seed, sim::SimTime span,
                                 bool churn) {
  scenario::Fig1Config cfg;
  cfg.box_shards = 2;
  cfg.access_bps = 10e9;
  cfg.core_bps = 10e9;
  cfg.att_uplink_bps = 400e6;
  cfg.workload = scenario::WorkloadKind::kImix;
  cfg.imix.seed = seed;
  cfg.link_burst_packets = 32;
  cfg.source_batch_window = 5 * sim::kMillisecond;
  if (churn) {
    cfg.dynamic_pool = net::Ipv4Prefix::from_string("100.64.0.0/16");
    cfg.session_churn = churn_config(seed, span);
    cfg.dyn_lease = cfg.session_churn->lease;
  }
  return cfg;
}

void schedule_fig1(scenario::Fig1& fig, sim::SimTime span) {
  using scenario::VoipMode;
  fig.schedule_voip(VoipMode::kPlain, fig.ann, fig.google, 1, kFlowPps,
                    10 * sim::kMillisecond, span);
  fig.schedule_voip(VoipMode::kPlain, fig.ann, fig.youtube, 2, kFlowPps,
                    10 * sim::kMillisecond, span);
  if (fig.control_service().dynamic_allocator() != nullptr) {
    fig.schedule_session_churn(fig.google);
  }
}

std::uint64_t fig1_delivered(const scenario::Fig1& fig) {
  return fig.google.sink.flow(1).received + fig.youtube.sink.flow(2).received;
}

const sim::Link& fig1_uplink(scenario::Fig1& fig) {
  return *fig.net.link_between(fig.att_access->id(), fig.att_peering->id());
}

Result run_fig1_churn(const Options& opt) {
  Result r;
  // One thread does all of it; pinning keeps it from migrating.
  (void)runtime::pin_current_thread(0);
  const scenario::Fig1Config cfg = fig1_config(opt.seed, kSpan, true);
  std::vector<double> setup_s;
  std::vector<double> second_kpps;
  LogHistogram slice_ns;
  std::uint64_t delivered = 0;
  std::uint64_t offered = 0;
  std::uint64_t uplink_drops = 0;
  std::uint64_t events = 0;
  std::uint64_t mismatched_reps = 0;
  RepOutcome first;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  // At least three repetitions: a median set-up time and a determinism
  // check need them, whatever the wall-time budget.
  for (int rep = 0; rep < 3 || now_ns() < deadline; ++rep) {
    const std::int64_t t0 = now_ns();
    auto fig = std::make_unique<scenario::Fig1>(cfg);
    schedule_fig1(*fig, kSpan);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    // Throughput samples are whole simulated seconds after the first:
    // each holds one rekey storm and steady queues, so they are alike
    // and the fast end over them is meaningful. The first second (queues
    // filling) and the drain tail are timed as slices only.
    std::int64_t second_ns = 0;
    std::uint64_t delivered_before = 0;
    for (sim::SimTime t = kSlice; t <= kSpan + kTail; t += kSlice) {
      const std::int64_t a = now_ns();
      fig->engine.run_until(t);
      const std::int64_t dt = now_ns() - a;
      slice_ns.add(static_cast<std::uint64_t>(dt));
      second_ns += dt;
      if (t % sim::kSecond != 0) continue;
      const std::uint64_t d = fig1_delivered(*fig);
      if (t > sim::kSecond) {
        second_kpps.push_back(static_cast<double>(d - delivered_before) /
                              (static_cast<double>(second_ns) * 1e-9) / 1e3);
      }
      delivered_before = d;
      second_ns = 0;
    }

    RepOutcome out;
    out.delivered = fig1_delivered(*fig);
    out.churn = fig->churn_counters();
    auto& service = fig->control_service();
    out.sessions = service.dynamic_allocator()->counters();
    out.service = fig->service_stats();
    out.events = fig->engine.executed();
    const sim::LinkStats& up = fig1_uplink(*fig).stats();

    r.attempted += out.churn.arrivals + 1;
    r.failed += out.churn.arrivals - std::min(out.churn.arrivals,
                                              out.churn.responses);
    r.check(out.churn.responses == out.churn.arrivals,
            "churn: responses != arrivals");
    r.check(out.sessions.allocated == out.sessions.released +
                                          out.sessions.expired +
                                          service.dynamic_sessions(),
            "churn: allocated != released + expired + resident");
    r.check(out.sessions.rejected == 0, "churn: dynamic pool exhausted");
    if (rep == 0) {
      first = out;
    } else if (!(out == first)) {
      ++mismatched_reps;
      ++r.failed;
    }

    delivered += out.delivered;
    events += out.events;
    offered += up.tx_packets + up.dropped_packets;
    uplink_drops += up.dropped_packets;
  }
  r.check(mismatched_reps == 0,
          "fig1: repetitions of one seed delivered different counts");
  r.check(first.delivered > 0, "fig1: nothing delivered");

  // The fast end (kFastEnd) over simulated seconds and slices: a second
  // the host slowed costs that second, not the run.
  r.metric("throughput_kpps", second_kpps, kFastEnd, "kpps");
  r.metric("latency_p50_us", slice_ns, 100 - kFastEnd, 1e-3, "us");
  r.metric("setup_s", setup_s, 50, "s");
  r.diagnostic("fig1.delivered_per_rep", static_cast<double>(first.delivered),
               "pkts", setup_s.size());
  r.diagnostic("fig1.churn_arrivals_per_rep",
               static_cast<double>(first.churn.arrivals), "count");
  r.diagnostic("sim.uplink_drop_frac",
               static_cast<double>(uplink_drops) /
                   static_cast<double>(offered),
               "ratio");
  r.diagnostic("sim.events_per_packet",
               static_cast<double>(events) / static_cast<double>(delivered),
               "events");
  r.diagnostic("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace nnbench
