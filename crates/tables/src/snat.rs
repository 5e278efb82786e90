//! The stateful SNAT session table.
//!
//! "SNAT maps the 5-tuple to the public network IP and port. Hence, the
//! number of entries in the SNAT table is decided by the number of
//! sessions... The entry number of the SNAT table can reach O(100M)...
//! The SNAT table is too large to fit in XGW-H... So we put the SNAT table
//! in XGW-x86" (§4.2, Fig 11).
//!
//! The table allocates a `(public IP, source port)` binding per outbound
//! session, keeps the reverse mapping for response traffic, and ages
//! sessions out on a deterministic clock. Tenants reuse private address
//! space, so a session is keyed by `(VNI, 5-tuple)`: two tenants' equal
//! flows get two bindings, and a response maps back to its own tenant.

use std::collections::HashMap;

use core::net::{IpAddr, Ipv4Addr};

use sailfish_net::{FiveTuple, IpProtocol, Vni};

use crate::error::{Error, Result};

/// Configuration of the SNAT pool.
#[derive(Debug, Clone)]
pub struct SnatConfig {
    /// Public IPs owned by the tenant ("a large number of VMs but only a
    /// few public IPs"). An empty list is a pool with no bindings.
    pub public_ips: Vec<IpAddr>,
    /// Inclusive source-port range allocated per public IP; an inverted
    /// range holds no ports.
    pub port_range: (u16, u16),
    /// Session idle timeout in nanoseconds.
    pub session_ttl_ns: u64,
    /// Optional hard cap on concurrent sessions.
    pub capacity: Option<usize>,
}

impl Default for SnatConfig {
    fn default() -> Self {
        SnatConfig {
            public_ips: vec![IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1))],
            port_range: (1024, 65535),
            session_ttl_ns: 120_000_000_000, // 120 s
            capacity: None,
        }
    }
}

/// The public-side binding of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// Public IP the flow is translated to.
    pub public_ip: IpAddr,
    /// Public source port.
    pub public_port: u16,
}

/// A session's identity: the tenant and its private flow.
type SessionKey = (Vni, FiveTuple);

#[derive(Debug, Clone)]
struct Session {
    binding: Binding,
    /// Index of `binding.public_ip` in the pool.
    ip_idx: usize,
    expires_at_ns: u64,
}

/// Key identifying an inbound (response) packet: its destination (our
/// public endpoint), its source (the remote peer) and its protocol — the
/// arguments of [`SnatTable::translate_inbound`].
type InboundKey = ((IpAddr, u16), (IpAddr, u16), IpProtocol);

/// The key of responses to `tuple` sent out through `binding`.
fn inbound_key(binding: Binding, tuple: &FiveTuple) -> InboundKey {
    let public = (binding.public_ip, binding.public_port);
    (public, (tuple.dst_ip, tuple.dst_port), tuple.protocol)
}

/// The stateful SNAT table.
#[derive(Debug, Clone)]
pub struct SnatTable {
    config: SnatConfig,
    sessions: HashMap<SessionKey, Session>,
    reverse: HashMap<InboundKey, SessionKey>,
    /// Bindings handed out and since freed, `(ip index, port)`, reused
    /// LIFO before any fresh one.
    returned: Vec<(usize, u16)>,
    /// Fresh bindings handed out so far: the pool is walked in
    /// `(ip index, port)` order, the lowest port of IP 0 first.
    fresh: usize,
    /// Lifetime counters.
    allocated_total: u64,
    expired_total: u64,
}

impl SnatTable {
    /// Creates a table with the given pool configuration. Nothing is
    /// allocated up front: bindings are handed out from a cursor over the
    /// pool.
    pub fn new(config: SnatConfig) -> Self {
        SnatTable {
            config,
            sessions: HashMap::new(),
            reverse: HashMap::new(),
            returned: Vec::new(),
            fresh: 0,
            allocated_total: 0,
            expired_total: 0,
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is active.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Total bindings handed out over the table's lifetime.
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }

    /// Total sessions aged out.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// The next free `(ip index, port)`: the most recently returned one,
    /// else the next fresh one; `None` once the pool is exhausted.
    fn next_free(&mut self) -> Option<(usize, u16)> {
        if let Some(slot) = self.returned.pop() {
            return Some(slot);
        }
        let (low, high) = self.config.port_range;
        let per_ip = usize::from(high.checked_sub(low)?) + 1;
        let ip_idx = self.fresh / per_ip;
        if ip_idx >= self.config.public_ips.len() {
            return None;
        }
        // `fresh % per_ip <= high - low`, so the sum stays within `high`.
        let port = low + (self.fresh % per_ip) as u16;
        self.fresh += 1;
        Some((ip_idx, port))
    }

    /// Translates an outbound packet of tenant `vni`: returns the
    /// existing binding or allocates a new one. Refreshes the idle timer.
    pub fn translate_outbound(
        &mut self,
        vni: Vni,
        tuple: FiveTuple,
        now_ns: u64,
    ) -> Result<Binding> {
        if !tuple.is_well_formed() {
            return Err(Error::InvalidKey);
        }
        let ttl = self.config.session_ttl_ns;
        let key = (vni, tuple);
        if let Some(session) = self.sessions.get_mut(&key) {
            session.expires_at_ns = now_ns + ttl;
            return Ok(session.binding);
        }
        if let Some(cap) = self.config.capacity {
            if self.sessions.len() >= cap {
                return Err(Error::CapacityExceeded);
            }
        }
        let (ip_idx, port) = self.next_free().ok_or(Error::CapacityExceeded)?;
        let public_ip = *self
            .config
            .public_ips
            .get(ip_idx)
            .ok_or(Error::CapacityExceeded)?;
        let binding = Binding {
            public_ip,
            public_port: port,
        };
        self.sessions.insert(
            key,
            Session {
                binding,
                ip_idx,
                expires_at_ns: now_ns + ttl,
            },
        );
        self.reverse.insert(inbound_key(binding, &tuple), key);
        self.allocated_total += 1;
        Ok(binding)
    }

    /// Translates an inbound (response) packet back to the tenant and
    /// its original flow. `public_dst` is the packet's destination (our
    /// public side); `remote_src` is its source (the Internet peer).
    pub fn translate_inbound(
        &mut self,
        public_dst: (IpAddr, u16),
        remote_src: (IpAddr, u16),
        protocol: IpProtocol,
        now_ns: u64,
    ) -> Option<(Vni, FiveTuple)> {
        let session_key = *self.reverse.get(&(public_dst, remote_src, protocol))?;
        let ttl = self.config.session_ttl_ns;
        let session = self.sessions.get_mut(&session_key)?;
        session.expires_at_ns = now_ns + ttl;
        Some(session_key)
    }

    /// Ages out idle sessions; returns how many were evicted. Their
    /// bindings return to the pool in key order, so the order they are
    /// reused in does not depend on the map's layout.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let mut dead: Vec<SessionKey> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.expires_at_ns <= now_ns)
            .map(|(key, _)| *key)
            .collect();
        dead.sort_unstable();
        for key in &dead {
            let Some(session) = self.sessions.remove(key) else {
                continue;
            };
            self.reverse.remove(&inbound_key(session.binding, &key.1));
            self.returned
                .push((session.ip_idx, session.binding.public_port));
        }
        self.expired_total += dead.len() as u64;
        dead.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TENANT: Vni = Vni::from_be_bytes([0, 0, 100]);

    fn tuple(src_port: u16) -> FiveTuple {
        FiveTuple::new(
            "192.168.0.5".parse().unwrap(),
            "93.184.216.34".parse().unwrap(),
            IpProtocol::Tcp,
            src_port,
            443,
        )
    }

    fn small_table() -> SnatTable {
        SnatTable::new(SnatConfig {
            public_ips: vec!["203.0.113.1".parse().unwrap()],
            port_range: (1024, 1027), // four ports
            session_ttl_ns: 1_000,
            capacity: None,
        })
    }

    #[test]
    fn outbound_allocates_and_is_stable() {
        let mut t = small_table();
        let b1 = t.translate_outbound(TENANT, tuple(1000), 0).unwrap();
        let b2 = t.translate_outbound(TENANT, tuple(1000), 10).unwrap();
        assert_eq!(b1, b2, "same flow keeps its binding");
        let b3 = t.translate_outbound(TENANT, tuple(1001), 0).unwrap();
        assert_ne!(b1.public_port, b3.public_port);
        assert_eq!(t.len(), 2);
        assert_eq!(t.allocated_total(), 2);
    }

    #[test]
    fn inbound_reverses_outbound() {
        let mut t = small_table();
        let out = tuple(1000);
        let b = t.translate_outbound(TENANT, out, 0).unwrap();
        let back = t
            .translate_inbound(
                (b.public_ip, b.public_port),
                (out.dst_ip, out.dst_port),
                IpProtocol::Tcp,
                1,
            )
            .unwrap();
        assert_eq!(back, (TENANT, out));
        // A different remote peer must not match (symmetric NAT).
        assert!(t
            .translate_inbound(
                (b.public_ip, b.public_port),
                ("8.8.8.8".parse().unwrap(), 53),
                IpProtocol::Tcp,
                1
            )
            .is_none());
    }

    #[test]
    fn port_pool_exhaustion() {
        let mut t = small_table();
        for i in 0..4 {
            t.translate_outbound(TENANT, tuple(2000 + i), 0).unwrap();
        }
        assert_eq!(
            t.translate_outbound(TENANT, tuple(3000), 0),
            Err(Error::CapacityExceeded)
        );
    }

    #[test]
    fn expiry_recycles_bindings() {
        let mut t = small_table();
        for i in 0..4 {
            t.translate_outbound(TENANT, tuple(2000 + i), 0).unwrap();
        }
        // Refresh one session late so it survives the sweep.
        t.translate_outbound(TENANT, tuple(2003), 500).unwrap();
        assert_eq!(t.expire(1_200), 3);
        assert_eq!(t.len(), 1);
        assert_eq!(t.expired_total(), 3);
        // Freed ports are reusable.
        for i in 0..3 {
            t.translate_outbound(TENANT, tuple(4000 + i), 1_300)
                .unwrap();
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn capacity_cap_enforced() {
        let mut t = SnatTable::new(SnatConfig {
            capacity: Some(1),
            ..SnatConfig::default()
        });
        t.translate_outbound(TENANT, tuple(1), 0).unwrap();
        assert_eq!(
            t.translate_outbound(TENANT, tuple(2), 0),
            Err(Error::CapacityExceeded)
        );
    }

    #[test]
    fn malformed_tuple_rejected() {
        let mut t = small_table();
        let bad = FiveTuple::new(
            "192.168.0.5".parse().unwrap(),
            "2001:db8::1".parse().unwrap(),
            IpProtocol::Tcp,
            1,
            2,
        );
        assert_eq!(t.translate_outbound(TENANT, bad, 0), Err(Error::InvalidKey));
    }

    #[test]
    fn multiple_public_ips_extend_the_pool() {
        let mut t = SnatTable::new(SnatConfig {
            public_ips: vec![
                "203.0.113.1".parse().unwrap(),
                "203.0.113.2".parse().unwrap(),
            ],
            port_range: (1024, 1024), // one port per IP
            session_ttl_ns: 1_000,
            capacity: None,
        });
        let b1 = t.translate_outbound(TENANT, tuple(1), 0).unwrap();
        let b2 = t.translate_outbound(TENANT, tuple(2), 0).unwrap();
        assert_ne!(b1.public_ip, b2.public_ip);
        assert!(t.translate_outbound(TENANT, tuple(3), 0).is_err());
    }

    #[test]
    fn tenants_sharing_a_tuple_get_their_own_bindings() {
        let mut t = small_table();
        let other = Vni::from_const(200);
        let out = tuple(1000);
        let mine = t.translate_outbound(TENANT, out, 0).unwrap();
        let theirs = t.translate_outbound(other, out, 0).unwrap();
        assert_ne!(mine, theirs, "two tenants, one private flow: two bindings");
        assert_eq!(t.len(), 2);
        let back = |t: &mut SnatTable, b: Binding| {
            t.translate_inbound(
                (b.public_ip, b.public_port),
                (out.dst_ip, out.dst_port),
                IpProtocol::Tcp,
                1,
            )
        };
        assert_eq!(back(&mut t, mine), Some((TENANT, out)));
        assert_eq!(back(&mut t, theirs), Some((other, out)));
    }

    /// The allocation order through exhaustion and expiry, recorded on
    /// the pool that listed every binding up front: the lowest port of
    /// the first IP comes first, and a freed binding is reused next.
    #[test]
    fn allocation_order_survives_exhaustion_and_expiry() {
        let mut t = SnatTable::new(SnatConfig {
            public_ips: vec![
                "203.0.113.1".parse().unwrap(),
                "203.0.113.2".parse().unwrap(),
            ],
            port_range: (1024, 1026),
            session_ttl_ns: 100,
            capacity: None,
        });
        let open = |t: &mut SnatTable, port: u16, now: u64| {
            t.translate_outbound(TENANT, tuple(port), now)
                .map(|b| (b.public_ip.to_string(), b.public_port))
                .ok()
        };
        let at = |ip: &str, port: u16| Some((format!("203.0.113.{ip}"), port));
        for (i, want) in [
            at("1", 1024),
            at("1", 1025),
            at("1", 1026),
            at("2", 1024),
            at("2", 1025),
            at("2", 1026),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(open(&mut t, 2000 + i as u16, i as u64), want);
        }
        assert_eq!(open(&mut t, 2006, 6), None, "pool exhausted");
        // One session at a time expires; the last freed is reused first.
        assert_eq!(t.expire(100), 1);
        assert_eq!(t.expire(101), 1);
        assert_eq!(open(&mut t, 2007, 101), at("1", 1025));
        assert_eq!(open(&mut t, 2008, 101), at("1", 1024));
        assert_eq!(open(&mut t, 2009, 101), None);
        // Two expire together: they return in key order, so the larger
        // key's binding is reused first.
        assert_eq!(t.expire(103), 2);
        assert_eq!(open(&mut t, 2010, 103), at("2", 1024));
        assert_eq!(open(&mut t, 2011, 103), at("1", 1026));
    }

    #[test]
    fn an_empty_pool_has_no_bindings() {
        for config in [
            SnatConfig {
                public_ips: Vec::new(),
                ..SnatConfig::default()
            },
            SnatConfig {
                port_range: (2000, 1999),
                ..SnatConfig::default()
            },
        ] {
            let mut t = SnatTable::new(config);
            assert_eq!(
                t.translate_outbound(TENANT, tuple(1), 0),
                Err(Error::CapacityExceeded)
            );
            assert!(t.is_empty());
            assert_eq!(t.expire(u64::MAX), 0);
        }
    }
}
