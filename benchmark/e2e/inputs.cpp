// Seeded inputs. Every packet a workload offers is built here from the
// seed alone, outside any timed region; the program under test only
// ever sees the finished packets.
#include "core/master_key.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/chacha.hpp"
#include "crypto/rsa.hpp"
#include "net/arena.hpp"
#include "net/shim.hpp"
#include "sim/trace_workload.hpp"

#include "bench.hpp"

namespace nnbench {

core::NeutralizerConfig service_config() {
  core::NeutralizerConfig cfg;
  cfg.anycast_addr = kAnycast;
  cfg.customer_space = net::Ipv4Prefix::from_string("20.0.0.0/16");
  return cfg;
}

crypto::AesKey root_key() {
  crypto::AesKey k;
  k.fill(0xD0);
  return k;
}

MixShape appliance_shape() {
  MixShape s;
  s.flows = 256;
  s.fixed_size = 112;  // the paper's §4 packet
  return s;
}

MixShape datapath_shape() {
  MixShape s;
  s.forward = 0.8;
  s.rekey_share = 0.02;
  s.ret = 0.2;
  return s;
}

MixShape hostile_shape() {
  MixShape s;
  s.forward = 0.45;
  s.setup = 0.05;
  s.malformed = 0.5;
  return s;
}

MixShape single_class(PacketClass c, std::uint32_t fixed_size) {
  MixShape s;
  s.forward = c == PacketClass::kForward ? 1 : 0;
  s.ret = c == PacketClass::kReturn ? 1 : 0;
  s.setup = c == PacketClass::kSetup ? 1 : 0;
  s.malformed = c == PacketClass::kMalformed ? 1 : 0;
  s.fixed_size = fixed_size;
  return s;
}

namespace {

/// One synthetic session: the outside host, its nonce, and the
/// customer it talks to.
struct Flow {
  net::Ipv4Addr outside;
  std::uint64_t nonce = 0;
  net::Ipv4Addr customer;
};

std::uint8_t byte(crypto::ChaChaRng& rng, std::uint64_t bound) {
  return static_cast<std::uint8_t>(rng.uniform(bound));
}

net::Packet forward_packet(const core::MasterKeySchedule& sched,
                           const Flow& f, std::size_t wire,
                           std::uint8_t flags) {
  const auto ks = crypto::derive_source_key(sched.current_key(0), f.nonce,
                                            f.outside.value());
  net::ShimHeader shim;
  shim.type = net::ShimType::kDataForward;
  shim.flags = flags;
  shim.nonce = f.nonce;
  shim.inner_addr =
      crypto::crypt_address(ks, f.nonce, false, f.customer.value());
  const std::size_t header = net::kIpv4HeaderSize + shim.serialized_size();
  return net::make_shim_packet(
      f.outside, kAnycast, shim,
      std::vector<std::uint8_t>(wire > header ? wire - header : 1, 0xE5));
}

net::Packet return_packet(const Flow& f, std::size_t wire) {
  net::ShimHeader shim;
  shim.type = net::ShimType::kDataReturn;
  shim.nonce = f.nonce;
  shim.inner_addr = f.outside.value();
  const std::size_t header = net::kIpv4HeaderSize + shim.serialized_size();
  return net::make_shim_packet(
      f.customer, kAnycast, shim,
      std::vector<std::uint8_t>(wire > header ? wire - header : 1, 0xE5));
}

net::Packet setup_packet(const Flow& f, std::uint64_t request,
                         const crypto::RsaPublicKey& pub) {
  net::ShimHeader shim;
  shim.type = net::ShimType::kKeySetup;
  shim.nonce = request;
  return net::make_shim_packet(f.outside, kAnycast, shim, pub.serialize());
}

/// Rewrites the IPv4 total length and repairs the header checksum, so
/// the length field itself is the lie a parser must catch.
void set_total_length(net::Packet& p, std::size_t len) {
  p.bytes[2] = static_cast<std::uint8_t>(len >> 8);
  p.bytes[3] = static_cast<std::uint8_t>(len);
  p.bytes[10] = 0;
  p.bytes[11] = 0;
  const std::uint16_t sum = net::internet_checksum(
      std::span<const std::uint8_t>(p.bytes).subspan(0,
                                                     net::kIpv4HeaderSize));
  p.bytes[10] = static_cast<std::uint8_t>(sum >> 8);
  p.bytes[11] = static_cast<std::uint8_t>(sum);
}

/// The test_shim_fuzz / test_fuzz_reject mutation families, each one a
/// guaranteed reject: truncated shim fields, bad IP version, non-shim
/// protocol, unknown shim type, a rekey flag promising fields the
/// buffer lacks, a lying IP total length, and a lying RSA key length.
net::Packet malformed_packet(crypto::ChaChaRng& rng,
                             const core::MasterKeySchedule& sched,
                             const Flow& f, std::size_t wire,
                             const crypto::RsaPublicKey& pub) {
  switch (rng.uniform(7)) {
    case 0: {
      net::Packet p = forward_packet(sched, f, wire, 0);
      p.bytes.resize(1 + rng.uniform(net::kIpv4HeaderSize +
                                     net::kShimBaseSize +
                                     net::kShimInnerAddrSize - 1));
      return p;
    }
    case 1: {
      net::Packet p = forward_packet(sched, f, wire, 0);
      std::uint8_t version = byte(rng, 15);
      if (version >= 4) ++version;
      p.bytes[0] = static_cast<std::uint8_t>((version << 4) | 5);
      return p;
    }
    case 2: {
      net::Packet p = forward_packet(sched, f, wire, 0);
      p.bytes[9] = rng.chance(0.5) ? 17 : 6;
      return p;
    }
    case 3: {
      net::Packet p = forward_packet(sched, f, wire, 0);
      const std::uint8_t t = byte(rng, 248);
      p.bytes[net::kIpv4HeaderSize] =
          t == 0 ? 0 : static_cast<std::uint8_t>(t + 8);
      return p;
    }
    case 4: {
      net::Packet p = forward_packet(sched, f, 40 + rng.uniform(22), 0);
      p.bytes[net::kIpv4HeaderSize + 1] = net::ShimFlags::kKeyRequest;
      return p;
    }
    case 5: {
      net::Packet p = setup_packet(f, rng.next_u64(), pub);
      static constexpr int kDeltas[] = {-20, -1, 1, 37};
      const int delta = kDeltas[rng.uniform(4)];
      set_total_length(p, static_cast<std::size_t>(
                              static_cast<int>(p.size()) + delta));
      return p;
    }
    default: {
      net::Packet p = setup_packet(f, rng.next_u64(), pub);
      p.bytes.resize(p.size() - 8);
      set_total_length(p, p.size());
      return p;
    }
  }
}

}  // namespace

PacketMix make_mix(std::uint64_t seed, std::size_t n, const MixShape& shape) {
  crypto::ChaChaRng rng(seed ^ 0x6E6E2D6265ULL);
  std::vector<Flow> flows(shape.flows);
  for (Flow& f : flows) {
    f.outside = net::Ipv4Addr(10, byte(rng, 256), byte(rng, 256),
                              static_cast<std::uint8_t>(1 + rng.uniform(254)));
    f.nonce = rng.next_u64();
    f.customer = net::Ipv4Addr(20, 0, byte(rng, 256),
                               static_cast<std::uint8_t>(1 + rng.uniform(254)));
  }
  // One-time 512-bit e=3 source keys, the paper's key-setup shape.
  std::vector<crypto::RsaPrivateKey> keys;
  if (shape.setup > 0 || shape.malformed > 0) {
    for (int k = 0; k < 8; ++k) keys.push_back(crypto::rsa_generate(rng, 512, 3));
  }
  const auto imix = sim::classic_imix();
  double imix_total = 0;
  for (const auto& c : imix) imix_total += c.weight;
  const auto draw_size = [&]() -> std::size_t {
    if (shape.fixed_size != 0) return shape.fixed_size;
    double u = rng.uniform_double() * imix_total;
    for (const auto& c : imix) {
      if (u < c.weight) return c.wire_size;
      u -= c.weight;
    }
    return imix.back().wire_size;
  };

  const core::MasterKeySchedule sched(root_key());
  PacketMix mix;
  mix.packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Flow& f = flows[i % flows.size()];
    const std::size_t wire = draw_size();
    double u = rng.uniform_double();
    PacketClass c = PacketClass::kMalformed;
    if ((u -= shape.forward) < 0) {
      c = rng.chance(shape.rekey_share) ? PacketClass::kRekeyForward
                                        : PacketClass::kForward;
    } else if ((u -= shape.ret) < 0) {
      c = PacketClass::kReturn;
    } else if ((u -= shape.setup) < 0) {
      c = PacketClass::kSetup;
    }
    switch (c) {
      case PacketClass::kForward:
        mix.packets.push_back(forward_packet(sched, f, wire, 0));
        break;
      case PacketClass::kRekeyForward:
        // The reserved rekey extension needs 26 more shim bytes.
        mix.packets.push_back(forward_packet(
            sched, f, std::max<std::size_t>(wire, 63),
            net::ShimFlags::kKeyRequest));
        break;
      case PacketClass::kReturn:
        mix.packets.push_back(return_packet(f, wire));
        break;
      case PacketClass::kSetup:
        mix.packets.push_back(
            setup_packet(f, rng.next_u64(), keys[rng.uniform(keys.size())].pub));
        break;
      case PacketClass::kMalformed:
        mix.packets.push_back(malformed_packet(
            rng, sched, f, wire, keys[rng.uniform(keys.size())].pub));
        break;
    }
    ++mix.counts[static_cast<std::size_t>(c)];
  }
  return mix;
}

Reference serial_reference(const PacketMix& mix, std::size_t burst) {
  core::Neutralizer ref(service_config(), root_key());
  net::PacketArena arena;
  Reference out;
  std::vector<net::Packet> batch;
  for (std::size_t first = 0; first < mix.packets.size(); first += burst) {
    batch.assign(mix.packets.begin() + static_cast<std::ptrdiff_t>(first),
                 mix.packets.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           first + burst, mix.packets.size())));
    const std::size_t kept = ref.process_batch(batch, 0, &arena);
    for (std::size_t k = 0; k < kept; ++k) {
      out.outputs.push_back(std::move(batch[k]));
    }
  }
  out.stats = ref.stats();
  return out;
}

void check_reference(const PacketMix& mix, const core::NeutralizerStats& s,
                     Result& r) {
  const auto count = [&](PacketClass c) {
    return mix.counts[static_cast<std::size_t>(c)];
  };
  r.check(s.data_forwarded ==
              count(PacketClass::kForward) + count(PacketClass::kRekeyForward),
          "reference: forwarded != valid forwards");
  r.check(s.rekeys_stamped == count(PacketClass::kRekeyForward),
          "reference: rekeys stamped != rekey requests");
  r.check(s.data_returned == count(PacketClass::kReturn),
          "reference: returned != valid returns");
  r.check(s.key_setups == count(PacketClass::kSetup),
          "reference: key setups answered != setups offered");
  r.check(s.rejected == count(PacketClass::kMalformed),
          "reference: rejected != malformed packets");
}

}  // namespace nnbench
