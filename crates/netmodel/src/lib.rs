//! A deterministic simulated IPv6 Internet.
//!
//! The paper scans the live IPv6 Internet; this environment cannot, so this
//! crate builds a synthetic ground truth with the *structural properties*
//! that drive every result in the study:
//!
//! - a registry of Autonomous Systems with RIR-style prefix allocations and
//!   longest-prefix-match address→AS resolution ([`AsRegistry`]);
//! - host populations laid out with the addressing schemes TGAs exploit
//!   (low-byte, EUI-64, embedded-IPv4, word patterns, privacy-random);
//! - per-port/protocol service profiles (ICMP is near-universally
//!   responsive; TCP80/443 concentrate in hosting ASes; UDP53 is rare);
//! - *aliased regions* — prefixes where every address answers — placed
//!   inside the same dense hosting patterns generators mine, of which only
//!   a configurable subset appears on the "published" alias list;
//! - *churned* addresses that were observable (they appear in data sources)
//!   but no longer respond;
//! - an AS12322-analog "megapattern" of trivially discoverable ICMP
//!   responders (§4.1 filters these from ICMP metrics);
//! - deterministic ICMP rate-limiting loss in some regions (the paper's
//!   explanation for online-dealiasing misses);
//! - a router topology for traceroute-based seed collection, and a DNS
//!   universe (domains → AAAA records) for domain-based collection.
//!
//! Everything derives from a single `u64` study seed: two worlds built from
//! the same [`WorldConfig`] are identical.

pub mod alias;
pub mod asreg;
pub mod build;
pub mod config;
pub mod dns;
pub mod faults;
pub mod hosts;
pub mod mix;
pub mod scheme;
pub mod services;
pub mod topology;
pub mod world;

pub use alias::AliasRegion;
pub use asreg::{AsInfo, AsKind, AsRegistry, Asn, Country};
pub use config::WorldConfig;
pub use dns::DnsUniverse;
pub use faults::{FaultConfig, FaultEffect, FaultEpochs, FaultKind, FaultPlan};
pub use hosts::{HostKind, HostRecord, HostTable};
pub use scheme::AddressingScheme;
pub use services::{PortSet, Protocol, PROTOCOLS};
pub use topology::Topology;
pub use world::{Disposition, ProbeReply, World};
