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
//! sessions out on a deterministic clock.

use std::collections::HashMap;

use core::net::{IpAddr, Ipv4Addr};

use sailfish_net::{FiveTuple, IpProtocol};

use crate::error::{Error, Result};

/// Configuration of the SNAT pool.
#[derive(Debug, Clone)]
pub struct SnatConfig {
    /// Public IPs owned by the tenant ("a large number of VMs but only a
    /// few public IPs").
    pub public_ips: Vec<IpAddr>,
    /// Inclusive source-port range allocated per public IP.
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

#[derive(Debug, Clone)]
struct Session {
    binding: Binding,
    expires_at_ns: u64,
}

/// Key identifying an inbound (response) packet: destination public
/// endpoint plus the remote peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InboundKey {
    public_ip: IpAddr,
    public_port: u16,
    remote_ip: IpAddr,
    remote_port: u16,
    protocol: IpProtocol,
}

/// The stateful SNAT table.
#[derive(Debug)]
pub struct SnatTable {
    config: SnatConfig,
    sessions: HashMap<FiveTuple, Session>,
    reverse: HashMap<InboundKey, FiveTuple>,
    /// Free `(ip index, port)` pairs, allocated LIFO.
    free: Vec<(usize, u16)>,
    /// Lifetime counters.
    allocated_total: u64,
    expired_total: u64,
}

impl SnatTable {
    /// Creates a table with the given pool configuration.
    pub fn new(config: SnatConfig) -> Self {
        assert!(
            !config.public_ips.is_empty(),
            "SNAT needs at least one public IP"
        );
        assert!(
            config.port_range.0 <= config.port_range.1,
            "empty port range"
        );
        let mut free = Vec::new();
        // LIFO order: reverse so the first allocation is (ip 0, low port).
        for (idx, _) in config.public_ips.iter().enumerate().rev() {
            for port in (config.port_range.0..=config.port_range.1).rev() {
                free.push((idx, port));
            }
        }
        SnatTable {
            config,
            sessions: HashMap::new(),
            reverse: HashMap::new(),
            free,
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

    /// Translates an outbound packet: returns the existing binding or
    /// allocates a new one. Refreshes the idle timer.
    pub fn translate_outbound(&mut self, tuple: FiveTuple, now_ns: u64) -> Result<Binding> {
        if !tuple.is_well_formed() {
            return Err(Error::InvalidKey);
        }
        let ttl = self.config.session_ttl_ns;
        if let Some(session) = self.sessions.get_mut(&tuple) {
            session.expires_at_ns = now_ns + ttl;
            return Ok(session.binding);
        }
        if let Some(cap) = self.config.capacity {
            if self.sessions.len() >= cap {
                return Err(Error::CapacityExceeded);
            }
        }
        let (ip_idx, port) = self.free.pop().ok_or(Error::CapacityExceeded)?;
        let binding = Binding {
            public_ip: self.config.public_ips[ip_idx],
            public_port: port,
        };
        self.sessions.insert(
            tuple,
            Session {
                binding,
                expires_at_ns: now_ns + ttl,
            },
        );
        self.reverse.insert(
            InboundKey {
                public_ip: binding.public_ip,
                public_port: binding.public_port,
                remote_ip: tuple.dst_ip,
                remote_port: tuple.dst_port,
                protocol: tuple.protocol,
            },
            tuple,
        );
        self.allocated_total += 1;
        Ok(binding)
    }

    /// Translates an inbound (response) packet back to the original tenant
    /// flow. `public_dst` is the packet's destination (our public side);
    /// `remote_src` is its source (the Internet peer).
    pub fn translate_inbound(
        &mut self,
        public_dst: (IpAddr, u16),
        remote_src: (IpAddr, u16),
        protocol: IpProtocol,
        now_ns: u64,
    ) -> Option<FiveTuple> {
        let key = InboundKey {
            public_ip: public_dst.0,
            public_port: public_dst.1,
            remote_ip: remote_src.0,
            remote_port: remote_src.1,
            protocol,
        };
        let tuple = *self.reverse.get(&key)?;
        let ttl = self.config.session_ttl_ns;
        let session = self.sessions.get_mut(&tuple)?;
        session.expires_at_ns = now_ns + ttl;
        Some(tuple)
    }

    /// Ages out idle sessions; returns how many were evicted.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let dead: Vec<FiveTuple> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.expires_at_ns <= now_ns)
            .map(|(t, _)| *t)
            .collect();
        for tuple in &dead {
            let session = self.sessions.remove(tuple).expect("listed above");
            self.reverse.remove(&InboundKey {
                public_ip: session.binding.public_ip,
                public_port: session.binding.public_port,
                remote_ip: tuple.dst_ip,
                remote_port: tuple.dst_port,
                protocol: tuple.protocol,
            });
            // Return the binding to the pool.
            let ip_idx = self
                .config
                .public_ips
                .iter()
                .position(|ip| *ip == session.binding.public_ip)
                .expect("binding ip from pool");
            self.free.push((ip_idx, session.binding.public_port));
        }
        self.expired_total += dead.len() as u64;
        dead.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let b1 = t.translate_outbound(tuple(1000), 0).unwrap();
        let b2 = t.translate_outbound(tuple(1000), 10).unwrap();
        assert_eq!(b1, b2, "same flow keeps its binding");
        let b3 = t.translate_outbound(tuple(1001), 0).unwrap();
        assert_ne!(b1.public_port, b3.public_port);
        assert_eq!(t.len(), 2);
        assert_eq!(t.allocated_total(), 2);
    }

    #[test]
    fn inbound_reverses_outbound() {
        let mut t = small_table();
        let out = tuple(1000);
        let b = t.translate_outbound(out, 0).unwrap();
        let back = t
            .translate_inbound(
                (b.public_ip, b.public_port),
                (out.dst_ip, out.dst_port),
                IpProtocol::Tcp,
                1,
            )
            .unwrap();
        assert_eq!(back, out);
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
            t.translate_outbound(tuple(2000 + i), 0).unwrap();
        }
        assert_eq!(
            t.translate_outbound(tuple(3000), 0),
            Err(Error::CapacityExceeded)
        );
    }

    #[test]
    fn expiry_recycles_bindings() {
        let mut t = small_table();
        for i in 0..4 {
            t.translate_outbound(tuple(2000 + i), 0).unwrap();
        }
        // Refresh one session late so it survives the sweep.
        t.translate_outbound(tuple(2003), 500).unwrap();
        assert_eq!(t.expire(1_200), 3);
        assert_eq!(t.len(), 1);
        assert_eq!(t.expired_total(), 3);
        // Freed ports are reusable.
        for i in 0..3 {
            t.translate_outbound(tuple(4000 + i), 1_300).unwrap();
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn capacity_cap_enforced() {
        let mut t = SnatTable::new(SnatConfig {
            capacity: Some(1),
            ..SnatConfig::default()
        });
        t.translate_outbound(tuple(1), 0).unwrap();
        assert_eq!(
            t.translate_outbound(tuple(2), 0),
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
        assert_eq!(t.translate_outbound(bad, 0), Err(Error::InvalidKey));
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
        let b1 = t.translate_outbound(tuple(1), 0).unwrap();
        let b2 = t.translate_outbound(tuple(2), 0).unwrap();
        assert_ne!(b1.public_ip, b2.public_ip);
        assert!(t.translate_outbound(tuple(3), 0).is_err());
    }
}
