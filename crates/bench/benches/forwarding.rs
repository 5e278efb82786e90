//! Micro-benchmarks of the per-packet forwarding paths (companions to
//! Fig 18: these measure the *model's* software cost; the Tbps envelopes
//! come from the calibrated `perf` module).
//!
//! Runs on the in-tree `sailfish_util::bench` harness; tune sample
//! counts with `SAILFISH_BENCH_SAMPLES` / `SAILFISH_BENCH_TARGET_MS`
//! and export JSON with `SAILFISH_BENCH_JSON=<path>`.

use sailfish_util::bench::Harness;

use sailfish::prelude::*;
use sailfish_tables::types::NcAddr;

fn hardware_gateway() -> XgwH {
    let mut gw = XgwH::with_defaults();
    for v in 0..64u32 {
        let vni = Vni::from_const(100 + v);
        for s in 0..8u8 {
            gw.tables
                .routes
                .insert(
                    VxlanRouteKey::new(vni, format!("10.{s}.0.0/16").parse::<IpPrefix>().unwrap()),
                    RouteTarget::Local,
                )
                .unwrap();
        }
        for h in 0..16u8 {
            gw.tables
                .add_vm(
                    vni,
                    format!("10.0.0.{}", 2 + h).parse().unwrap(),
                    NcAddr::new("10.200.0.1".parse().unwrap()),
                )
                .unwrap();
        }
    }
    gw
}

fn packets() -> Vec<GatewayPacket> {
    (0..256u32)
        .map(|i| {
            GatewayPacketBuilder::new(
                Vni::from_const(100 + i % 64),
                "10.1.0.9".parse().unwrap(),
                format!("10.0.0.{}", 2 + i % 16).parse().unwrap(),
            )
            .build()
        })
        .collect()
}

fn bench_hw_process(h: &mut Harness) {
    let mut group = h.group("xgw_h");
    let mut gw = hardware_gateway();
    let pkts = packets();
    group.throughput_elements(pkts.len() as u64);
    group.bench_function("process_256_packets", |b| {
        b.iter(|| {
            for (i, p) in pkts.iter().enumerate() {
                std::hint::black_box(gw.process(p, i as u64));
            }
        })
    });
    group.finish();
}

fn bench_sw_process(h: &mut Harness) {
    let mut group = h.group("xgw_x86");
    let mut tables = SoftwareTables::default();
    for v in 0..64u32 {
        let vni = Vni::from_const(100 + v);
        tables.routes.insert(
            VxlanRouteKey::new(vni, "10.0.0.0/8".parse::<IpPrefix>().unwrap()),
            RouteTarget::Local,
        );
        for hh in 0..16u8 {
            tables
                .vm_nc
                .insert(
                    vni,
                    format!("10.0.0.{}", 2 + hh).parse().unwrap(),
                    NcAddr::new("10.200.0.1".parse().unwrap()),
                )
                .unwrap();
        }
    }
    let mut fwd = SoftwareForwarder::new(tables.into(), SnatConfig::default());
    let pkts = packets();
    group.throughput_elements(pkts.len() as u64);
    group.bench_function("process_256_packets", |b| {
        b.iter(|| {
            for (i, p) in pkts.iter().enumerate() {
                std::hint::black_box(fwd.process(p, i as u64));
            }
        })
    });
    group.finish();
}

fn bench_parse_emit(h: &mut Harness) {
    let mut group = h.group("wire");
    let packet = packets()[0];
    let bytes = packet.emit().expect("emittable");
    group.throughput_bytes(bytes.len() as u64);
    group.bench_function("emit", |b| {
        b.iter(|| std::hint::black_box(packet.emit().unwrap()))
    });
    group.bench_function("parse", |b| {
        b.iter(|| std::hint::black_box(GatewayPacket::parse(&bytes).unwrap()))
    });
    group.finish();
}

fn bench_rss(h: &mut Harness) {
    let toeplitz = sailfish_net::rss::Toeplitz::default();
    let tuples: Vec<FiveTuple> = packets().iter().map(|p| p.five_tuple()).collect();
    h.bench_function("rss_toeplitz_256_tuples", |b| {
        b.iter_batched(
            || tuples.clone(),
            |tuples| {
                for t in &tuples {
                    std::hint::black_box(toeplitz.queue_for(t, 32));
                }
            },
        )
    });
}

fn main() {
    let mut h = Harness::from_env("forwarding");
    bench_hw_process(&mut h);
    bench_sw_process(&mut h);
    bench_parse_emit(&mut h);
    bench_rss(&mut h);
    h.finish();
}
