#include "trafficgen/datasets.h"

#include <algorithm>
#include <numeric>

#include "trafficgen/payload.h"
#include "trafficgen/session.h"
#include "trafficgen/spurious.h"

namespace sugar::trafficgen {
namespace {

net::MacAddress client_mac(Rng& rng) {
  net::MacAddress m{{0x02, 0x1A, 0x4B, 0, 0, 0}};
  m.octets[3] = rng.u8();
  m.octets[4] = rng.u8();
  m.octets[5] = rng.u8();
  return m;
}

const net::MacAddress kGatewayMac{{0x02, 0x00, 0x5E, 0x10, 0x01, 0x01}};

Endpoint make_client(const AppProfile& p, Rng& rng) {
  Endpoint ep;
  ep.mac = client_mac(rng);
  ep.ip = net::Ipv4Address::from_octets(
      p.client_subnet_a, p.client_subnet_b,
      static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
      static_cast<std::uint8_t>(rng.uniform_int(2, 250)));
  ep.port = static_cast<std::uint16_t>(rng.uniform_int(32768, 60999));
  ep.ttl = rng.chance(0.7) ? p.client_ttl_hi : p.client_ttl_lo;
  ep.window = p.client_window;
  ep.ts_base = rng.u32();
  ep.ip_id = rng.u16();
  return ep;
}

/// Shared CDN pool: a handful of /24s that many classes' servers live in.
net::Ipv4Address cdn_server_ip(Rng& rng) {
  static constexpr struct {
    std::uint8_t a, b, c;
  } kCdn[] = {{23, 54, 7},   {23, 199, 120}, {104, 16, 8},  {104, 18, 26},
              {151, 101, 1}, {151, 101, 65}, {13, 107, 21}, {142, 250, 64},
              {172, 217, 16}, {99, 84, 210}};
  auto pick = kCdn[rng.uniform_int(0, std::size(kCdn) - 1)];
  return net::Ipv4Address::from_octets(pick.a, pick.b, pick.c,
                                       static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
}

/// VPN gateways: one small pool shared by all applications — the reason the
/// VPN half of ISCX carries almost no address signal.
net::Ipv4Address vpn_gateway_ip(Rng& rng) {
  return net::Ipv4Address::from_octets(
      131, 202, 240, static_cast<std::uint8_t>(rng.uniform_int(10, 13)));
}

Endpoint make_server(const AppProfile& p, bool vpn, Rng& rng) {
  Endpoint ep;
  ep.mac = kGatewayMac;
  if (vpn) {
    ep.ip = vpn_gateway_ip(rng);
    ep.port = 1194;
    ep.ttl = 64;
    ep.window = 0xFFFF;
  } else {
    ep.ip = rng.chance(p.cdn_prob)
                ? cdn_server_ip(rng)
                : net::Ipv4Address::from_octets(
                      p.subnet_a, p.subnet_b, p.subnet_c,
                      static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
    ep.port = p.server_ports[rng.uniform_int(
        0, static_cast<std::int64_t>(p.server_ports.size()) - 1)];
    // Observed TTL = initial TTL minus the (per-flow random) path length,
    // so TTL carries a fuzzy operator fingerprint, not an exact class id.
    int hops = static_cast<int>(rng.uniform_int(5, 24));
    ep.ttl = static_cast<std::uint8_t>(std::max<int>(2, p.server_ttl - hops));
    ep.tos = p.tos;
    ep.window = p.server_window;
  }
  ep.ts_base = rng.u32();
  ep.ip_id = rng.u16();
  return ep;
}

std::vector<std::uint8_t> make_message(const AppProfile& p, bool from_client, Rng& rng) {
  double mu = from_client ? p.req_mu : p.resp_mu;
  double sigma = from_client ? p.req_sigma : p.resp_sigma;
  std::size_t n = static_cast<std::size_t>(
      std::clamp(rng.lognormal(mu, sigma), 8.0, 60000.0));
  switch (p.payload) {
    case PayloadKind::TlsRecords:
      return tls_record_payload(rng, n);
    case PayloadKind::PlainHttp:
      return from_client ? http_request_payload(rng, p.name + ".example.com",
                                                n > 400 ? n - 200 : 0)
                         : http_response_payload(rng, n);
    case PayloadKind::C2Beacon:
      return from_client ? c2_beacon_payload(rng, p.c2_magic, n)
                         : encrypted_payload(rng, n);
    case PayloadKind::OpenVpn:
    case PayloadKind::RawEncrypted:
      return encrypted_payload(rng, n);
    case PayloadKind::QuicLike:
      // Large client messages pad out to Initial-style long-header packets;
      // everything else rides in short-header 1-RTT datagrams.
      return quic_payload(rng, n, from_client && n >= 600);
    case PayloadKind::DohLike:
      return doh_payload(rng, n);
  }
  return encrypted_payload(rng, n);
}

}  // namespace

std::vector<net::Packet> generate_flow(const AppProfile& p, bool vpn, Rng& rng,
                                       std::uint64_t start_usec,
                                       std::vector<std::size_t>* strip_indices) {
  Endpoint client = make_client(p, rng);
  Endpoint server = make_server(p, vpn, rng);
  std::size_t rounds = rng.geometric_count(p.mean_rounds);

  if (vpn || !p.use_tcp) {
    // UDP transport (native UDP apps, or the OpenVPN tunnel).
    UdpSessionParams params{.client = client, .server = server,
                            .start_usec = start_usec};
    UdpSessionBuilder s(params, rng);
    std::uint64_t session_id = rng.u64();
    for (std::size_t r = 0; r < rounds; ++r) {
      auto req = make_message(p, true, rng);
      if (vpn) req = openvpn_payload(rng, session_id, req.size());
      s.send(true, std::move(req));
      s.wait_usec(static_cast<std::uint64_t>(rng.exponential(p.gap_ms * 1000 / 4)) + 200);
      auto resp = make_message(p, false, rng);
      if (vpn) resp = openvpn_payload(rng, session_id, resp.size());
      // UDP datagrams are bounded by the MTU: fragment large messages.
      std::size_t off = 0;
      while (off < resp.size()) {
        std::size_t seg = std::min<std::size_t>(resp.size() - off, p.udp_payload_cap);
        s.send(false, std::vector<std::uint8_t>(
                          resp.begin() + static_cast<std::ptrdiff_t>(off),
                          resp.begin() + static_cast<std::ptrdiff_t>(off + seg)));
        off += seg;
        s.wait_usec(static_cast<std::uint64_t>(rng.exponential(400)) + 50);
      }
      s.wait_usec(static_cast<std::uint64_t>(rng.exponential(p.gap_ms * 1000)) + 500);
    }
    return s.take();
  }

  // TCP transport.
  TcpSessionParams params{.client = client, .server = server,
                          .start_usec = start_usec, .mss = p.mss};
  TcpSessionBuilder s(params, rng);
  s.handshake();
  s.wait_usec(static_cast<std::uint64_t>(rng.exponential(5'000)) + 500);

  std::size_t first_client_data = s.packets().size();
  if (p.tls_handshake) {
    s.send(true, tls_client_hello(rng, p.sni));
    s.wait_usec(static_cast<std::uint64_t>(rng.exponential(15'000)) + 1'000);
    s.send(false, tls_server_hello(rng));
    s.wait_usec(static_cast<std::uint64_t>(rng.exponential(10'000)) + 1'000);
  }

  for (std::size_t r = 0; r < rounds; ++r) {
    s.send(true, make_message(p, true, rng));
    s.wait_usec(static_cast<std::uint64_t>(rng.exponential(p.gap_ms * 1000 / 4)) + 300);
    s.send(false, make_message(p, false, rng));
    s.wait_usec(static_cast<std::uint64_t>(rng.exponential(p.gap_ms * 1000)) + 500);
  }
  s.finish(rng.chance(0.8));

  if (strip_indices) {
    *strip_indices = s.handshake_indices();
    if (p.tls_handshake) strip_indices->push_back(first_client_data);
  }
  return s.take();
}

namespace {

/// Per-flow transport/framing reshaping drawn from the variant's
/// quic/doh fractions; Plain keeps the profile's native shape.
enum class FlowShape : std::uint8_t { Plain, Quic, Doh };

struct FlowJob {
  int cls;
  int service;
  int binary;
  bool vpn;
  const AppProfile* profile;
  FlowShape shape = FlowShape::Plain;
};

/// Draws the flow's shape. Draws from `rng` ONLY when a reshaping fraction
/// is set, so default-variant generation consumes the exact legacy stream.
FlowShape draw_shape(const TraceVariant& v, Rng& rng) {
  if (v.quic_fraction <= 0 && v.doh_fraction <= 0) return FlowShape::Plain;
  double u = rng.uniform();
  if (u < v.quic_fraction) return FlowShape::Quic;
  if (u < v.quic_fraction + v.doh_fraction) return FlowShape::Doh;
  return FlowShape::Plain;
}

GeneratedTrace assemble(const std::string& name,
                        const std::vector<AppProfile>& profiles,
                        const std::vector<FlowJob>& jobs, const GenOptions& opts,
                        bool strip_handshake) {
  Rng rng(opts.seed);

  struct FlowPackets {
    std::vector<net::Packet> pkts;
    PacketLabel label;
    int flow_id;
  };
  std::vector<FlowPackets> flows;
  flows.reserve(jobs.size());

  // Flow start times spread over a capture window proportional to the count,
  // so flows interleave like a real trace.
  std::uint64_t window_usec = static_cast<std::uint64_t>(jobs.size()) * 400'000 + 1;
  int flow_id = 0;
  for (const auto& job : jobs) {
    Rng flow_rng = rng.fork(static_cast<std::uint64_t>(flow_id) + 1);
    std::uint64_t start =
        static_cast<std::uint64_t>(flow_rng.uniform(0, static_cast<double>(window_usec)));
    std::vector<std::size_t> strip;
    const AppProfile* prof = job.profile;
    AppProfile shaped;
    if (job.shape == FlowShape::Quic) {
      shaped = quic_profile(*prof);
      prof = &shaped;
    } else if (job.shape == FlowShape::Doh) {
      shaped = doh_profile(*prof);
      prof = &shaped;
    }
    auto pkts = generate_flow(*prof, job.vpn, flow_rng, start,
                              strip_handshake ? &strip : nullptr);
    if (strip_handshake && !strip.empty()) {
      std::sort(strip.rbegin(), strip.rend());
      for (std::size_t idx : strip)
        if (idx < pkts.size()) pkts.erase(pkts.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    FlowPackets fp;
    fp.pkts = std::move(pkts);
    fp.label = {.cls = job.cls, .service = job.service, .binary = job.binary};
    fp.flow_id = flow_id++;
    flows.push_back(std::move(fp));
  }

  // Merge all flows into one time-ordered trace.
  GeneratedTrace trace;
  trace.dataset_name = name;
  for (const auto& p : profiles) trace.class_names.push_back(p.name);
  std::size_t total = 0;
  for (const auto& f : flows) total += f.pkts.size();
  struct Tagged {
    net::Packet pkt;
    PacketLabel label;
    int flow_id;
  };
  std::vector<Tagged> all;
  all.reserve(total);
  for (auto& f : flows)
    for (auto& pkt : f.pkts)
      all.push_back({std::move(pkt), f.label, f.flow_id});
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& x, const Tagged& y) { return x.pkt.ts_usec < y.pkt.ts_usec; });

  trace.packets.reserve(all.size());
  for (auto& t : all) trace.packets.push_back(std::move(t.pkt));

  // Spurious traffic, inserted after ordering so timestamps line up.
  std::vector<std::size_t> spurious;  // descending
  if (opts.spurious_fraction > 0) {
    Rng spur_rng = rng.fork(0x5915u);
    spurious = inject_spurious(trace.packets, opts.spurious_fraction, spur_rng);
  }
  // Labels and flow ids follow the packets: each spurious packet gets an
  // unlabelled entry of flow -1, ahead of the packet it was inserted before.
  trace.labels.reserve(trace.packets.size());
  trace.flow_of.reserve(trace.packets.size());
  auto next = spurious.rbegin();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (; next != spurious.rend() && *next == i; ++next) {
      trace.labels.emplace_back();
      trace.flow_of.push_back(-1);
    }
    trace.labels.push_back(all[i].label);
    trace.flow_of.push_back(all[i].flow_id);
  }
  return trace;
}

}  // namespace

std::size_t GeneratedTrace::num_flows() const {
  int max_id = -1;
  for (int f : flow_of) max_id = std::max(max_id, f);
  return static_cast<std::size_t>(max_id + 1);
}

std::size_t GeneratedTrace::num_spurious() const {
  return static_cast<std::size_t>(std::count(flow_of.begin(), flow_of.end(), -1));
}

GeneratedTrace generate_iscx_vpn(const GenOptions& opts) {
  auto profiles = apply_variant(iscx_vpn_profiles(), opts.variant);
  Rng rng(opts.seed ^ 0x15C9);
  std::vector<FlowJob> jobs;
  for (const auto& p : profiles) {
    std::size_t n = variant_class_flows(opts.flows_per_class, p.class_id,
                                        opts.variant.imbalance_gamma);
    for (std::size_t i = 0; i < n; ++i) {
      bool vpn = rng.chance(opts.vpn_fraction);
      FlowShape shape = draw_shape(opts.variant, rng);
      if (shape != FlowShape::Plain) vpn = false;  // reshaped flows aren't tunnelled
      jobs.push_back({.cls = p.class_id, .service = p.service_id,
                      .binary = vpn ? 1 : 0, .vpn = vpn, .profile = &p,
                      .shape = shape});
    }
  }
  auto trace = assemble("ISCX-VPN", profiles, jobs, opts, /*strip=*/false);
  for (auto s :
       {"Web", "VoIP", "Streaming", "Chat", "Email", "FileTransfer"})
    trace.service_names.emplace_back(s);
  return trace;
}

GeneratedTrace generate_ustc_tfc(const GenOptions& opts) {
  auto profiles = apply_variant(ustc_tfc_profiles(), opts.variant);
  Rng shape_rng(opts.seed ^ 0xD1F7);  // draws only when reshaping is enabled
  std::vector<FlowJob> jobs;
  for (const auto& p : profiles) {
    std::size_t n = variant_class_flows(opts.flows_per_class, p.class_id,
                                        opts.variant.imbalance_gamma);
    for (std::size_t i = 0; i < n; ++i)
      jobs.push_back({.cls = p.class_id, .service = -1,
                      .binary = p.malicious ? 1 : 0, .vpn = false, .profile = &p,
                      .shape = draw_shape(opts.variant, shape_rng)});
  }
  return assemble("USTC-TFC", profiles, jobs, opts, /*strip=*/false);
}

GeneratedTrace generate_cstn_tls120(const GenOptions& opts) {
  auto profiles = apply_variant(cstn_tls120_profiles(), opts.variant);
  Rng shape_rng(opts.seed ^ 0xD1F7);  // draws only when reshaping is enabled
  std::vector<FlowJob> jobs;
  for (const auto& p : profiles) {
    std::size_t n = variant_class_flows(opts.flows_per_class, p.class_id,
                                        opts.variant.imbalance_gamma);
    for (std::size_t i = 0; i < n; ++i)
      jobs.push_back({.cls = p.class_id, .service = -1, .binary = -1, .vpn = false,
                      .profile = &p, .shape = draw_shape(opts.variant, shape_rng)});
  }
  return assemble("CSTN-TLS1.3", profiles, jobs, opts, opts.strip_tls_handshake);
}

GeneratedTrace generate_backbone(std::uint64_t seed, std::size_t n_flows) {
  // A diverse unlabelled mix for pre-training, standing in for the paper's
  // MAWI + UNSW-NB15 + campus traces.
  std::vector<AppProfile> pool;
  for (auto& p : iscx_vpn_profiles()) pool.push_back(std::move(p));
  for (auto& p : ustc_tfc_profiles()) pool.push_back(std::move(p));
  {
    auto sites = cstn_tls120_profiles();
    for (std::size_t i = 0; i < sites.size(); i += 4) pool.push_back(sites[i]);
  }

  Rng rng(seed);
  std::vector<FlowJob> jobs;
  jobs.reserve(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) {
    const auto& p = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    jobs.push_back({.cls = -1, .service = -1, .binary = -1,
                    .vpn = rng.chance(0.1), .profile = &p});
  }
  GenOptions opts;
  opts.seed = seed;
  opts.spurious_fraction = 0.06;
  auto trace = assemble("backbone", pool, jobs, opts, /*strip=*/false);
  trace.class_names.clear();  // unlabelled by design
  return trace;
}

}  // namespace sugar::trafficgen
