//! The simulated-Internet transport.
//!
//! [`SimTransport`] is the bottom of the stack. Its [`Transport::send`]
//! *parses the probe bytes* (rejecting anything malformed, exactly as the
//! network would ignore it), asks the world oracle how the target behaves,
//! and *crafts a genuine response packet* for the caller to parse and
//! validate — the full wire-format code path, which the byte-level
//! default [`Transport::probe_burst`] drives.
//!
//! The engine's probes take the [`Transport::probe_burst`] override
//! instead: it consults the same oracle with the same attempt numbering
//! and fault clock, so it is bit-identical to the byte path (the
//! wire-reference suite in `tests/parallel_scan.rs` diffs the two through
//! [`crate::transport::WireOnly`]).

use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{Disposition, FaultEffect, ProbeReply, Protocol, World};

use crate::carried::Carried;
use crate::packet::dns::build_dns_response;
use crate::packet::icmpv6::{build_dst_unreachable, build_echo_reply, NO_REGION};
use crate::packet::tcp::{build_rst, build_syn_ack};
use crate::packet::{parse_packet, ParsedPacket};
use crate::transport::{Attempt, Burst, ProbeSpec, Transport};

/// Transport backed by a [`World`].
///
/// Loss is re-rolled per transmission via the world's `attempt` parameter.
/// The attempt number is tracked **per (destination, protocol)** in the
/// [`Carried`] state, for the flows whose replies are lossy (no other reply
/// reads it): the nth probe of an address on a protocol sees the same loss
/// roll no matter how probes to other targets are interleaved around it.
/// This is what makes sharded scans bit-identical to sequential ones — a
/// shard task is lent the counters of its own slice of the target list,
/// continues them, and hands them back.
#[derive(Debug, Clone)]
pub struct SimTransport {
    world: Arc<World>,
    sent: u64,
    carried: Carried,
}

impl SimTransport {
    /// Attach to a world.
    pub fn new(world: Arc<World>) -> Self {
        let carried = Carried::new(world.faults());
        SimTransport {
            world,
            sent: 0,
            carried,
        }
    }

    /// The world this transport probes.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Classify the probe's protocol and addressing from its wire contents.
    fn route_of(pkt: &ParsedPacket) -> Option<(Protocol, Ipv6Addr, Ipv6Addr)> {
        match pkt {
            ParsedPacket::EchoRequest { src, dst, .. } => Some((Protocol::Icmp, *src, *dst)),
            ParsedPacket::Tcp {
                src, dst, segment, ..
            } => match segment.dport {
                80 => Some((Protocol::Tcp80, *src, *dst)),
                443 => Some((Protocol::Tcp443, *src, *dst)),
                _ => None,
            },
            ParsedPacket::Dns {
                src, dst, message, ..
            } if message.dport == 53 => Some((Protocol::Udp53, *src, *dst)),
            _ => None,
        }
    }

    /// The notional last-hop gateway that reports a destination
    /// unreachable: the destination /64's ::1 stands in.
    fn gateway_of(dst: Ipv6Addr) -> Ipv6Addr {
        Ipv6Addr::from(u128::from(dst) & !0xffff_ffff_ffff_ffffu128 | 1)
    }
}

impl Transport for SimTransport {
    fn send(&mut self, packet: &[u8]) -> Option<Vec<u8>> {
        self.sent += 1;
        // A malformed probe elicits nothing, like the real network.
        let parsed = parse_packet(packet).ok()?;
        let (proto, src, dst) = Self::route_of(&parsed)?;
        let found = self.world.resolve(dst, proto);
        let counted = matches!(found, Disposition::Lossy { .. });
        let (flow, fault) = self.carried.slots(u128::from(dst), proto, counted);
        let attempt = flow.map_or(0, bump);
        // Hostile-network fault layer: the attempt number is consumed even
        // when the probe is dropped (the packet left the scanner), and the
        // roll happens before the reply is read so a blackholed prefix
        // never reveals its ground truth.
        match fault.map(|(plan, domain, dslot)| plan.effect(domain, proto, bump(dslot))) {
            None | Some(FaultEffect::Pass) => {}
            // Converted per probe, matching `probe_burst`, so wire and
            // burst accounting agree to the microsecond.
            Some(FaultEffect::Delay(d)) => self.carried.add_faults(0, crate::engine::secs_to_us(d)),
            Some(FaultEffect::Drop(_)) => {
                self.carried.add_faults(1, 0);
                return None;
            }
        }
        let reply = found.reply(attempt);
        if matches!(reply, ProbeReply::DstUnreachable) {
            // Routers quote the invoking packet regardless of its
            // protocol (RFC 4443 §3.1): cite the actual probe bytes.
            return Some(build_dst_unreachable(Self::gateway_of(dst), src, packet));
        }
        match (reply, &parsed) {
            (
                ProbeReply::EchoReply,
                ParsedPacket::EchoRequest {
                    src,
                    ident,
                    seq,
                    payload,
                    ..
                },
            ) => {
                let echoed = payload.map(|p| p.to_bytes().to_vec()).unwrap_or_default();
                Some(build_echo_reply(dst, *src, *ident, *seq, &echoed))
            }
            (ProbeReply::SynAck, ParsedPacket::Tcp { src, segment, .. }) => Some(build_syn_ack(
                dst,
                *src,
                segment.dport,
                segment.sport,
                0x6a5e_55ed, // server ISN; arbitrary constant in simulation
                segment.seq,
            )),
            (ProbeReply::Rst, ParsedPacket::Tcp { src, segment, .. }) => Some(build_rst(
                dst,
                *src,
                segment.dport,
                segment.sport,
                segment.seq,
            )),
            (ProbeReply::DnsAnswer, ParsedPacket::Dns { src, message, .. }) => Some(
                build_dns_response(dst, *src, message.sport, message.id, &message.qname),
            ),
            _ => None, // Timeout, or reply type inapplicable to the probe
        }
    }

    fn packets_sent(&self) -> u64 {
        self.sent
    }

    /// Zero-copy burst: ask the oracle directly and map its replies onto
    /// the §4.1 classification, touching the flow map and the world's
    /// tables once per *target* instead of once per packet. Crafting and
    /// re-parsing response bytes
    /// is skipped because inside one process it is an identity map: the
    /// simulator always builds well-formed, token-valid responses (so the
    /// byte path's `malformed`/`invalid` tallies stay zero), the world only
    /// emits reply kinds applicable to the probe protocol, and a hit echoes
    /// the probe's region verbatim — except an ICMP payload carrying
    /// `NO_REGION`, which parses back as untagged. Attempt numbering, fault
    /// sequencing, early exit and packet counting match [`Self::send`].
    fn probe_burst(&mut self, spec: &ProbeSpec, budget: u32) -> Burst {
        // What the world holds at the target does not depend on the
        // attempt, so it is looked up once per burst; the byte path's
        // `send` resolves per packet, so the wire-reference suite diffs
        // once-per-burst against once-per-packet. Only a lossy reply reads
        // the attempt number, so only a lossy flow gets a counter.
        let found = self.world.resolve(spec.dst, spec.proto);
        let counted = matches!(found, Disposition::Lossy { .. });
        // Both slots are fetched once per target (the whole burst lands in
        // one fault domain). `fault` is None exactly when no plan is active.
        let (mut flow, mut fault) = self
            .carried
            .slots(u128::from(spec.dst), spec.proto, counted);
        let mut drops = 0u64;
        let mut delay_us = 0u64;
        let mut burst = Burst::silent();
        while burst.used < budget {
            let attempt = flow.as_deref_mut().map_or(0, bump);
            burst.used += 1;
            if let Some((plan, domain, dslot)) = fault.as_mut() {
                // Density advances even for dropped probes, exactly like
                // the wire path: the packet left the scanner.
                match plan.effect(*domain, spec.proto, bump(dslot)) {
                    FaultEffect::Drop(_) => {
                        drops += 1;
                        continue;
                    }
                    FaultEffect::Delay(d) => delay_us += crate::engine::secs_to_us(d),
                    FaultEffect::Pass => {}
                }
            }
            // A dropped probe never reads the reply: a blackholed prefix
            // never reveals its ground truth.
            match found.reply(attempt) {
                ProbeReply::EchoReply | ProbeReply::SynAck | ProbeReply::DnsAnswer => {
                    burst.verdict = Attempt::Hit;
                    burst.tag = spec
                        .region
                        .filter(|&r| spec.proto != Protocol::Icmp || r != NO_REGION);
                    break;
                }
                ProbeReply::Rst => {
                    burst.verdict = Attempt::Rst;
                    break;
                }
                ProbeReply::DstUnreachable => {
                    burst.verdict = Attempt::Unreachable;
                    break;
                }
                ProbeReply::Timeout => {}
            }
        }
        self.sent += u64::from(burst.used);
        self.carried.add_faults(drops, delay_us);
        burst
    }

    fn carried(&self) -> Option<&Carried> {
        Some(&self.carried)
    }

    fn carried_mut(&mut self) -> Option<&mut Carried> {
        Some(&mut self.carried)
    }
}

/// Post-increment a counter slot.
#[inline]
fn bump(slot: &mut u32) -> u32 {
    let n = *slot;
    *slot = slot.wrapping_add(1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::build_probe;
    use netmodel::WorldConfig;

    fn world() -> Arc<World> {
        Arc::new(World::build(WorldConfig::tiny(21)))
    }

    fn find_live(world: &World, proto: Protocol) -> Ipv6Addr {
        world
            .hosts()
            .iter()
            .find(|(a, r)| r.responds(proto) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .expect("some live host")
    }

    #[test]
    fn live_icmp_host_yields_parseable_echo_reply() {
        let w = world();
        let dst = find_live(&w, Protocol::Icmp);
        let mut t = SimTransport::new(w);
        let src = "2001:db8::100".parse().unwrap();
        // base_loss may eat one attempt; retry a few times
        let reply = (0..8).find_map(|_| t.send(&build_probe(src, dst, Protocol::Icmp, 5, None)));
        let parsed = parse_packet(&reply.expect("live host answers")).unwrap();
        match parsed {
            ParsedPacket::EchoReply { src: responder, .. } => assert_eq!(responder, dst),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tcp_hit_is_syn_ack_with_correct_ack() {
        let w = world();
        let dst = find_live(&w, Protocol::Tcp80);
        let mut t = SimTransport::new(w);
        let src = "2001:db8::100".parse().unwrap();
        let probe = build_probe(src, dst, Protocol::Tcp80, 5, None);
        let reply = (0..8)
            .find_map(|_| t.send(&probe))
            .expect("live host answers");
        match parse_packet(&reply).unwrap() {
            ParsedPacket::Tcp { segment, .. } => {
                assert!(segment.is_syn_ack());
                let token = crate::packet::validation_token(5, dst);
                assert_eq!(segment.ack, (token as u32).wrapping_add(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dns_hit_echoes_question() {
        let w = world();
        let dst = find_live(&w, Protocol::Udp53);
        let mut t = SimTransport::new(w);
        let src = "2001:db8::100".parse().unwrap();
        let probe = build_probe(src, dst, Protocol::Udp53, 5, None);
        let reply = (0..8)
            .find_map(|_| t.send(&probe))
            .expect("resolver answers");
        match parse_packet(&reply).unwrap() {
            ParsedPacket::Dns { message, .. } => {
                assert!(message.is_response);
                assert!(message.qname.starts_with("p-"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unoccupied_space_times_out_or_unreaches() {
        let w = world();
        let mut t = SimTransport::new(w);
        let src = "2001:db8::100".parse().unwrap();
        // An address far outside any allocation: always silence.
        let dst: Ipv6Addr = "3fff:ffff::1".parse().unwrap();
        for _ in 0..4 {
            assert!(t
                .send(&build_probe(src, dst, Protocol::Icmp, 5, None))
                .is_none());
        }
    }

    #[test]
    fn garbage_probe_elicits_nothing_but_counts() {
        let w = world();
        let mut t = SimTransport::new(w);
        assert!(t.send(&[0u8; 64]).is_none());
        assert_eq!(t.packets_sent(), 1);
    }

    #[test]
    fn region_tag_round_trips_through_payload() {
        let w = world();
        let dst = find_live(&w, Protocol::Icmp);
        let mut t = SimTransport::new(w);
        let src = "2001:db8::100".parse().unwrap();
        let probe = build_probe(src, dst, Protocol::Icmp, 5, Some(0xABCD));
        let reply = (0..8)
            .find_map(|_| t.send(&probe))
            .expect("live host answers");
        let parsed = parse_packet(&reply).unwrap();
        assert_eq!(parsed.region_tag(), Some(0xABCD));
    }

    /// Find a routed-but-unoccupied address whose gateway reports
    /// Destination Unreachable (deterministic given the world seed).
    fn find_unreachable(w: &World) -> Ipv6Addr {
        let (base, _) = w.hosts().iter().next().expect("hosts exist");
        let net = u128::from(base) & !0xffffu128;
        (0..200_000u128)
            .map(|i| Ipv6Addr::from(net | (0xa000 + i)))
            .find(|&a| {
                w.hosts().get(a).is_none()
                    && matches!(w.probe(a, Protocol::Icmp, 0), ProbeReply::DstUnreachable)
            })
            .expect("some routed hole emits unreachables")
    }

    /// Regression (PR 4): unreachables used to be crafted only for ICMP
    /// probes; TCP and UDP probes to the same hole were silently dropped.
    /// RFC 4443 routers quote whatever packet invoked the error.
    #[test]
    fn unreachable_is_emitted_for_every_probe_protocol() {
        let w = world();
        let hole = find_unreachable(&w);
        let src: Ipv6Addr = "2001:db8::100".parse().unwrap();
        for proto in netmodel::PROTOCOLS {
            let mut t = SimTransport::new(w.clone());
            let probe = build_probe(src, hole, proto, 5, None);
            let raw = t
                .send(&probe)
                .unwrap_or_else(|| panic!("{proto:?} gets an unreachable"));
            match parse_packet(&raw).unwrap() {
                ParsedPacket::DstUnreachable { original_dst, .. } => {
                    assert_eq!(
                        original_dst,
                        Some(hole),
                        "quotes the invoking {proto:?} probe"
                    );
                }
                other => panic!("unexpected {other:?}"),
            }
            // And the quoted bytes validate against the probed target, so
            // the engine classifies it (as Unreachable, never a hit).
            assert!(crate::packet::validate_response(
                5,
                hole,
                &parse_packet(&raw).unwrap()
            ));
        }
    }

    fn carried(t: &impl Transport) -> &Carried {
        t.carried().expect("the simulator carries state")
    }

    fn faulty_world(cfg: netmodel::FaultConfig) -> Arc<World> {
        let mut wc = WorldConfig::tiny(21);
        wc.faults = cfg;
        Arc::new(World::build(wc))
    }

    /// The burst override must report exactly what the byte-level default
    /// does, target for target: same verdict, echoed tag, packets used and
    /// drop tallies, and the same flow/fault clocks afterwards — with and
    /// without the fault layer, tagged and untagged. The list is scanned
    /// three times on each protocol, so attempt numbers continue across
    /// passes, and the two paths must keep the same flow counters.
    #[test]
    fn probe_burst_matches_the_byte_path_per_target() {
        use crate::transport::WireOnly;
        let src: Ipv6Addr = "2001:db8::100".parse().unwrap();
        for faults in [
            netmodel::FaultConfig::off(),
            netmodel::FaultConfig::hostile(),
        ] {
            let w = faulty_world(faults);
            let mut targets: Vec<Ipv6Addr> = w.hosts().iter().map(|(a, _)| a).take(96).collect();
            targets.push(find_unreachable(&w));
            targets.push("3fff:ffff::1".parse().unwrap());
            // Aliased space, where loss is heaviest.
            targets.extend(w.alias_regions().iter().take(8).map(|r| r.prefix.network()));
            for proto in netmodel::PROTOCOLS {
                let mut wire = WireOnly(SimTransport::new(w.clone()));
                let mut fast = SimTransport::new(w.clone());
                for pass in 0..3 {
                    for (i, &dst) in targets.iter().enumerate() {
                        let region = [None, Some(0), Some(77), Some(u32::MAX)][i % 4];
                        let spec = ProbeSpec {
                            src,
                            dst,
                            proto,
                            salt: 5,
                            region,
                            validate: true,
                        };
                        assert_eq!(
                            wire.probe_burst(&spec, 3),
                            fast.probe_burst(&spec, 3),
                            "pass {pass}: {dst} {proto:?} {region:?}"
                        );
                    }
                }
                assert_eq!(wire.packets_sent(), fast.packets_sent(), "{proto:?}");
                let (wire, fast) = (carried(&wire), carried(&fast));
                assert_eq!(wire.fault_drops(), fast.fault_drops(), "{proto:?}");
                assert_eq!(wire.throttled_us(), fast.throttled_us(), "{proto:?}");
                assert_eq!(wire.fault_rows(), fast.fault_rows(), "{proto:?}");
                assert_eq!(wire.flow_rows(), fast.flow_rows(), "{proto:?}");
                assert!(
                    !fast.flow_rows().is_empty(),
                    "{proto:?}: some flow was lossy"
                );
            }
        }
    }

    /// A flow is counted only where a loss roll reads the count: a `Fixed`
    /// reply — unrouted silence, an unreachable, a closed port, a churned
    /// host — leaves no row on either path, faults on or off, while a live
    /// flow keeps one per pass.
    #[test]
    fn a_fixed_target_leaves_no_row() {
        use crate::transport::WireOnly;
        let src: Ipv6Addr = "2001:db8::100".parse().unwrap();
        let proto = Protocol::Tcp80;
        let spec = |dst| ProbeSpec {
            src,
            dst,
            proto,
            salt: 5,
            region: None,
            validate: true,
        };
        for faults in [
            netmodel::FaultConfig::off(),
            netmodel::FaultConfig::hostile(),
        ] {
            let w = faulty_world(faults);
            let closed = w
                .hosts()
                .iter()
                .find(|&(a, r)| !r.churned && !r.responds(proto) && !w.is_aliased(a))
                .map(|(a, _)| a)
                .expect("some live host with port 80 closed");
            let churned = w
                .hosts()
                .iter()
                .find(|&(a, r)| r.churned && !w.is_aliased(a))
                .map(|(a, _)| a);
            let fixed = [
                Some(closed),
                churned,
                Some(find_unreachable(&w)),
                "3fff:ffff::1".parse().ok(),
            ];
            for fixed in fixed.into_iter().flatten() {
                assert!(
                    !matches!(w.resolve(fixed, proto), Disposition::Lossy { .. }),
                    "{fixed}"
                );
                let mut wire = WireOnly(SimTransport::new(w.clone()));
                let mut fast = SimTransport::new(w.clone());
                for _ in 0..3 {
                    assert_eq!(
                        wire.probe_burst(&spec(fixed), 3),
                        fast.probe_burst(&spec(fixed), 3),
                        "{fixed}"
                    );
                }
                assert_eq!(wire.packets_sent(), fast.packets_sent(), "{fixed}");
                assert!(
                    carried(&wire).flow_rows().is_empty(),
                    "{fixed}: the byte path kept a row"
                );
                assert!(
                    carried(&fast).flow_rows().is_empty(),
                    "{fixed}: the burst path kept a row"
                );
            }
            let live = find_live(&w, proto);
            let mut fast = SimTransport::new(w.clone());
            let used: u32 = (0..3).map(|_| fast.probe_burst(&spec(live), 3).used).sum();
            let row = [0, used, 0, 0];
            assert_eq!(
                carried(&fast).flow_rows(),
                [(u128::from(live), row)],
                "a live flow counts every attempt"
            );
        }
    }

    #[test]
    fn fully_blackholed_world_drops_every_probe_and_counts_them() {
        let w = faulty_world(netmodel::FaultConfig::blackholes(1.0, 1.0));
        let dst = find_live(&w, Protocol::Icmp);
        let mut t = SimTransport::new(w);
        let src: Ipv6Addr = "2001:db8::100".parse().unwrap();
        for _ in 0..6 {
            assert!(t
                .send(&build_probe(src, dst, Protocol::Icmp, 5, None))
                .is_none());
        }
        assert_eq!(
            carried(&t).fault_drops(),
            6,
            "every probe was eaten by the blackhole"
        );
        assert_eq!(t.packets_sent(), 6, "dropped probes still count as sent");
    }

    #[test]
    fn throttled_world_accrues_virtual_latency_but_answers() {
        let mut cfg = netmodel::FaultConfig::off();
        cfg.enabled = true;
        cfg.throttle_rate = 1.0;
        cfg.throttle_delay_s = 0.05;
        let w = faulty_world(cfg);
        let dst = find_live(&w, Protocol::Icmp);
        let mut t = SimTransport::new(w);
        let spec = ProbeSpec {
            src: "2001:db8::100".parse().unwrap(),
            dst,
            proto: Protocol::Icmp,
            salt: 5,
            region: None,
            validate: true,
        };
        let b = t.probe_burst(&spec, 4);
        assert_eq!(b.verdict, Attempt::Hit, "throttle delays, never drops");
        let expect = u64::from(b.used) * 50_000;
        assert_eq!(carried(&t).throttled_us(), expect);
        assert_eq!(carried(&t).fault_drops(), 0);
    }
}
