//! Randomized property tests of the 3D NoC: conservation (every
//! injected packet is delivered exactly once), minimality of
//! uncontended latency, and robustness across the
//! region/placement/scheme design space. Cases are drawn from the
//! deterministic [`SimRng`] so every run replays the same inputs.

use sttram_noc_repro::common::config::{
    ArbitrationPolicy, Estimator, RequestPathMode, SystemConfig, TsbPlacement,
};
use sttram_noc_repro::common::geom::{Coord, Layer, Mesh};
use sttram_noc_repro::common::rng::SimRng;
use sttram_noc_repro::noc::{NetworkParams, NocEnv, Packet, PacketKind};

fn params(
    mode: RequestPathMode,
    regions: usize,
    placement: TsbPlacement,
    policy: ArbitrationPolicy,
    hops: u32,
) -> NetworkParams {
    let cfg = SystemConfig {
        path_mode: mode,
        regions,
        tsb_placement: placement,
        arbitration: policy,
        parent_hops: hops,
        ..SystemConfig::default()
    };
    NetworkParams::resolve(&cfg, &NocEnv::default())
}

fn kind_of(i: usize) -> PacketKind {
    match i % 4 {
        0 => PacketKind::BankRead,
        1 => PacketKind::BankWrite,
        2 => PacketKind::Writeback,
        _ => PacketKind::BankRead,
    }
}

fn policy_of(i: usize) -> ArbitrationPolicy {
    match i % 4 {
        0 => ArbitrationPolicy::RoundRobin,
        1 => ArbitrationPolicy::BankAware {
            estimator: Estimator::Simple,
        },
        2 => ArbitrationPolicy::BankAware {
            estimator: Estimator::Rca,
        },
        _ => ArbitrationPolicy::BankAware {
            estimator: Estimator::WindowBased,
        },
    }
}

/// No packet is ever lost or duplicated, whatever the topology
/// parameters and traffic pattern.
#[test]
fn conservation_across_design_space() {
    use sttram_noc_repro::noc::Network;
    let mut rng = SimRng::for_stream(0xA11CE, 1);
    for case in 0..12usize {
        let regions = [4usize, 8, 16][rng.below(3)];
        let placement = [TsbPlacement::Corner, TsbPlacement::Staggered][rng.below(2)];
        let policy = policy_of(rng.below(4));
        let hops = 1 + rng.below(3) as u32;
        let n = 1 + rng.below(59);
        let mut net = Network::new(params(
            RequestPathMode::RegionTsbs,
            regions,
            placement,
            policy,
            hops,
        ));
        let mesh = net.mesh();
        for i in 0..n {
            let src = mesh.coord((rng.below(64) as u16).into(), Layer::Core);
            let dst = mesh.coord((rng.below(64) as u16).into(), Layer::Cache);
            net.inject(Packet::new(kind_of(i), src, dst, i as u64, i as u64));
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6_000 {
            net.step();
            for node in 0..64u16 {
                let at = mesh.coord(node.into(), Layer::Cache);
                for p in net.drain_delivered(at) {
                    assert_eq!(
                        mesh.node(p.dst),
                        node.into(),
                        "case {case}: delivered at its destination"
                    );
                    assert!(seen.insert(p.token), "case {case}: duplicate {}", p.token);
                }
            }
            if seen.len() == n {
                break;
            }
        }
        assert_eq!(seen.len(), n, "case {case}: all packets delivered");
        assert_eq!(net.in_flight(), 0, "case {case}");
    }
}

/// A single uncontended packet is delivered no faster than the
/// pipeline allows and within a small constant of it.
#[test]
fn uncontended_latency_is_near_minimal() {
    use sttram_noc_repro::noc::Network;
    let mut rng = SimRng::for_stream(0xA11CE, 2);
    for _ in 0..24 {
        let src_n = rng.below(64) as u16;
        let dst_n = rng.below(64) as u16;
        let mut net = Network::new(params(
            RequestPathMode::AllTsvs,
            4,
            TsbPlacement::Corner,
            ArbitrationPolicy::RoundRobin,
            2,
        ));
        let mesh = net.mesh();
        let s = mesh.coord(src_n.into(), Layer::Core);
        let d = mesh.coord(dst_n.into(), Layer::Cache);
        net.inject(Packet::new(PacketKind::BankRead, s, d, 0, 0));
        let mut got = None;
        for _ in 0..300 {
            net.step();
            if let Some(p) = net.drain_delivered(d).pop() {
                got = Some(p);
                break;
            }
        }
        let p = got.expect("delivered");
        let hops = s.manhattan(d) as u64 + 1; // +1 for the vertical hop
        let min = hops * 3; // 2-stage router + 1-cycle link per hop
        let lat = p.net_latency();
        assert!(lat >= min, "{lat} >= {min}");
        assert!(lat <= min + 16, "{lat} <= {min} + slack");
    }
}

/// Z-X-Y routes and region-TSB routes both reach the same destination
/// set (the restriction changes paths, not reachability).
#[test]
fn both_path_modes_deliver() {
    use sttram_noc_repro::noc::Network;
    let mut rng = SimRng::for_stream(0xA11CE, 3);
    for _ in 0..16 {
        let core = rng.below(64) as u16;
        let bank = rng.below(64) as u16;
        for mode in [RequestPathMode::AllTsvs, RequestPathMode::RegionTsbs] {
            let mut net = Network::new(params(
                mode,
                4,
                TsbPlacement::Corner,
                ArbitrationPolicy::RoundRobin,
                2,
            ));
            let mesh = net.mesh();
            let s = mesh.coord(core.into(), Layer::Core);
            let d = mesh.coord(bank.into(), Layer::Cache);
            net.inject(Packet::new(PacketKind::Writeback, s, d, 1, 1));
            let mut delivered = false;
            for _ in 0..500 {
                net.step();
                if !net.drain_delivered(d).is_empty() {
                    delivered = true;
                    break;
                }
            }
            assert!(delivered, "{mode:?} delivers {core}->{bank}");
        }
    }
}

/// The minimal-route property for the deterministic routing function,
/// checked exhaustively (64 x 64 pairs, both modes — cheap, no
/// simulation).
#[test]
fn routing_trace_is_bounded_for_all_pairs() {
    use sttram_noc_repro::noc::regions::RegionMap;
    use sttram_noc_repro::noc::routing::RoutingTable;
    let mesh = Mesh::new(8, 8);
    for mode in [RequestPathMode::AllTsvs, RequestPathMode::RegionTsbs] {
        let table = RoutingTable::new(mesh, mode, RegionMap::new(mesh, 4, TsbPlacement::Corner));
        for core in 0..64u16 {
            for bank in 0..64u16 {
                let src = mesh.coord(core.into(), Layer::Core);
                let dst = mesh.coord(bank.into(), Layer::Cache);
                let p = Packet::new(PacketKind::BankRead, src, dst, 0, 0);
                let route = table.trace(&p);
                let minimal = src.manhattan(dst) as usize + 1;
                assert!(route.len() >= minimal);
                // The TSB detour is bounded by one mesh traversal.
                assert!(route.len() <= minimal + 28, "{core}->{bank} {mode:?}");
                assert_eq!(*route.last().unwrap(), dst);
            }
        }
    }
}

/// Responses always ascend at the bank's own column in both modes.
#[test]
fn responses_always_use_local_tsvs() {
    use sttram_noc_repro::noc::regions::RegionMap;
    use sttram_noc_repro::noc::routing::RoutingTable;
    let mesh = Mesh::new(8, 8);
    let table = RoutingTable::new(
        mesh,
        RequestPathMode::RegionTsbs,
        RegionMap::new(mesh, 4, TsbPlacement::Corner),
    );
    for bank in 0..64u16 {
        for core in 0..64u16 {
            let src = mesh.coord(bank.into(), Layer::Cache);
            let dst = mesh.coord(core.into(), Layer::Core);
            let p = Packet::new(PacketKind::DataReply, src, dst, 0, 0);
            let route = table.trace(&p);
            assert_eq!(
                route[0],
                Coord {
                    layer: Layer::Core,
                    ..src
                },
                "{bank}->{core}"
            );
        }
    }
}
