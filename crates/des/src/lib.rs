//! Discrete-event simulation kernel for the `ckptsim` project.
//!
//! This crate provides the minimal substrate every simulator in the
//! workspace is built on:
//!
//! * [`SimTime`] — a strongly typed simulation clock value (seconds,
//!   `f64`), with total ordering that rejects NaN at construction.
//! * [`EventQueue`] — a cancellable priority queue of scheduled events
//!   (an indexed binary heap) popping in `(time, FIFO)` order.
//! * [`RngFactory`] / [`SimRng`] — deterministic, splittable random-number
//!   streams so that every stochastic component of a model draws from its
//!   own substream and simulations are exactly reproducible from a single
//!   master seed.
//! * [`Engine`] — a tiny run-control harness that drives an
//!   [`EventHandler`] until a time horizon or event budget is exhausted.
//!
//! The kernel is deliberately policy-free: it knows nothing about Petri
//! nets, SANs, or checkpointing. Higher layers (`ckpt-san`,
//! `ckpt-core::direct`) define what an event *means*.
//!
//! # Example
//!
//! ```
//! use ckpt_des::{Engine, EventHandler, EventQueue, SimTime};
//!
//! /// Counts how many times it has been woken up, re-arming itself
//! /// every 2 simulated seconds.
//! struct Ticker {
//!     ticks: u64,
//! }
//!
//! impl EventHandler for Ticker {
//!     type Event = ();
//!
//!     fn handle(&mut self, now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
//!         self.ticks += 1;
//!         queue.schedule(now + SimTime::from_secs(2.0), ());
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticker { ticks: 0 });
//! engine.queue_mut().schedule(SimTime::ZERO, ());
//! engine.run_until(SimTime::from_secs(10.0));
//! assert_eq!(engine.handler().ticks, 6); // t = 0,2,4,6,8,10
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event;
pub mod hist;
pub mod prof;
mod queue;
mod rng;
pub mod telem;
mod time;

pub use engine::{Engine, EventHandler, RunOutcome};
pub use event::{EventId, ScheduledEvent};
pub use hist::LogHistogram;
pub use queue::EventQueue;
pub use rng::{RngFactory, SimRng, StreamId};
pub use time::{SimTime, TimeError};
