//! # dresar-engine
//!
//! A small, deterministic discrete-event simulation core shared by every
//! simulator in the workspace.
//!
//! * [`queue::EventQueue`] — the time-ordered event queue: a calendar ring
//!   of one-cycle buckets for the short delays that dominate, with an
//!   overflow heap beyond its horizon. Ties at the same cycle are broken by
//!   insertion order, so a simulation is a pure function of its inputs (a
//!   requirement for reproducing figures exactly across runs and machines).
//! * [`resource`] — busy-until resource models used for serialized units
//!   (links, directory controllers) and bank-interleaved units (DRAM).

#![warn(missing_docs)]

pub mod queue;
pub mod resource;

pub use queue::EventQueue;
pub use resource::{BankedResource, Resource};
