//! `tcam-net`: the network and durability layer that turns the TCAM
//! serving stack into an actual service.
//!
//! Everything below rides on the existing layers — `tcam-serve`'s
//! epoch-snapshot tables and `tcam-update`'s single-writer rule store —
//! and adds the three things a deployed match engine needs (hand-rolled
//! on `std::net`/`std::fs`, keeping the workspace zero-dependency):
//!
//! * **A wire front-end** ([`server`], [`wire`], [`client`]): a compact
//!   length-prefixed binary lookup protocol over TCP, each lookup matched
//!   on its connection's thread and its reply tagged with the epoch that
//!   served it; plus a minimal HTTP/JSON admin plane
//!   ([`admin`]) for rule batches, stats, and snapshot triggers.
//! * **Durability** ([`wal`]): a CRC-framed write-ahead log (fsync per
//!   batch, torn-tail truncation on replay) with periodic snapshots and
//!   log compaction, so a restart replays to exactly the rule state and
//!   epoch the crash interrupted.
//! * **Robustness** ([`server`], [`node`]): a live-connection cap
//!   (further sockets wait in the listen backlog) and TCP backpressure
//!   within a connection; graceful shutdown
//!   that answers every decoded request; and multi-tenant namespaces,
//!   each mapping to its own table ([`node`]).
//!
//! ```no_run
//! use std::sync::Arc;
//! use tcam_net::client::NetClient;
//! use tcam_net::node::{NodeConfig, TcamNode};
//! use tcam_net::server::{NetServer, ServerConfig};
//! use tcam_update::store::RuleChange;
//! use tcam_core::bit::parse_ternary;
//!
//! let node = Arc::new(TcamNode::open("data".as_ref(), NodeConfig::default()).unwrap());
//! node.apply(0, 4, &[RuleChange::Insert {
//!     priority: 1,
//!     word: parse_ternary("10XX").unwrap(),
//! }]).unwrap();
//! let server = NetServer::start(Arc::clone(&node), "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();
//! let (epoch, hits) = client.lookup_ternary(0, &[parse_ternary("1010").unwrap()]).unwrap();
//! assert_eq!(hits, vec![Some(1)]);
//! assert!(epoch >= 1);
//! server.shutdown();
//! node.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod admin;
pub mod client;
pub mod crc;
pub mod error;
pub mod json;
pub mod node;
pub mod server;
pub mod wal;
pub mod wire;

pub use admin::AdminServer;
pub use client::NetClient;
pub use crc::crc32c;
pub use error::{NetError, Result};
pub use node::{NamespaceGroup, NodeConfig, TcamNode};
pub use server::{NetServer, ServerConfig};
pub use wal::{DurableStore, WalRecord};
pub use wire::{LookupRequest, LookupResponse, Status};
