//! Hardware/software co-design for stateful SNAT (Fig 11): the VM's
//! Internet-bound request punts from XGW-H to XGW-x86, which allocates a
//! public binding; the response from the Internet arrives directly at
//! XGW-x86 and is translated back to the tenant flow.
//!
//! Run with: `cargo run --example snat_hw_sw`

use sailfish::prelude::*;
use sailfish_xgw_h::PuntReason;
use sailfish_xgw_x86::Decision;

fn main() {
    let vpc = Vni::from_const(77);

    // Hardware gateway: local subnet + "special VNI tag" default route
    // marking Internet traffic as SNAT-required.
    let mut hw = XgwH::with_defaults();
    hw.tables
        .routes
        .insert(
            VxlanRouteKey::new(vpc, "192.168.0.0/16".parse().unwrap()),
            RouteTarget::Local,
        )
        .unwrap();
    hw.tables
        .routes
        .insert(
            VxlanRouteKey::new(vpc, "0.0.0.0/0".parse().unwrap()),
            RouteTarget::InternetSnat,
        )
        .unwrap();

    // Software gateway: same routes plus the stateful SNAT pool.
    let mut sw_tables = SoftwareTables::default();
    sw_tables.routes.insert(
        VxlanRouteKey::new(vpc, "0.0.0.0/0".parse().unwrap()),
        RouteTarget::InternetSnat,
    );
    let mut sw = SoftwareForwarder::new(sw_tables.into(), SnatConfig::default());

    // The VM requests a web page (red arrow in Fig 11).
    let request = GatewayPacketBuilder::new(
        vpc,
        "192.168.0.5".parse().unwrap(),
        "93.184.216.34".parse().unwrap(),
    )
    .transport(IpProtocol::Tcp, 51000, 443)
    .build();

    // Step 1: XGW-H recognizes the SNAT tag and punts.
    let punted = match hw.process(&request, 0) {
        HwDecision::PuntToX86 { packet, reason } => {
            println!("XGW-H: punt to XGW-x86 ({reason:?})");
            assert_eq!(reason, PuntReason::SnatRequired);
            packet
        }
        other => panic!("unexpected hw decision: {other:?}"),
    };

    // Step 2: XGW-x86 allocates the public binding.
    let binding = match sw.process(&punted, 0) {
        Decision::ToInternet { binding } => {
            println!(
                "XGW-x86: session {} translated to {}:{}",
                punted.five_tuple(),
                binding.public_ip,
                binding.public_port
            );
            binding
        }
        other => panic!("unexpected sw decision: {other:?}"),
    };

    // Step 3: the Internet responds to the public binding (blue arrow);
    // XGW-x86 translates it back without touching XGW-H.
    let (tenant, original) = sw
        .snat
        .translate_inbound(
            (binding.public_ip, binding.public_port),
            ("93.184.216.34".parse().unwrap(), 443),
            IpProtocol::Tcp,
            1,
        )
        .expect("response maps back to the tenant session");
    println!("XGW-x86: response mapped back to {original} in VPC {tenant}");
    assert_eq!((tenant, original), (vpc, request.five_tuple()));

    // The punt path is rate limited; hardware protects the software tier.
    let mut flood_hw = XgwH::new(AlpmConfig::default(), 8_000, 1_000);
    flood_hw
        .tables
        .routes
        .insert(
            VxlanRouteKey::new(vpc, "0.0.0.0/0".parse().unwrap()),
            RouteTarget::InternetSnat,
        )
        .unwrap();
    let mut punted_count = 0;
    let mut limited = 0;
    for _ in 0..100 {
        match flood_hw.process(&request, 0) {
            HwDecision::PuntToX86 { .. } => punted_count += 1,
            HwDecision::Drop(_) => limited += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    println!("under flood: {punted_count} punted, {limited} rate-limited at XGW-H");
    assert!(limited > 0, "the limiter must engage under flood");

    // Session bookkeeping.
    println!(
        "SNAT table: {} live sessions, {} allocated total",
        sw.snat.len(),
        sw.snat.allocated_total()
    );
    println!("snat_hw_sw OK");
}
