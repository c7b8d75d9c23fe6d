//! # df-prob — probability and statistics substrate
//!
//! From-scratch numerical building blocks used throughout the
//! differential-fairness workspace:
//!
//! - [`numerics`]: numerically stable primitives (Kahan summation, safe
//!   log-ratios, the softplus and sigmoid).
//! - [`special`]: special functions (log-gamma, incomplete gamma, error
//!   function, the normal CDF and its inverse).
//! - [`rng`]: deterministic, seedable random-number generators (PCG32,
//!   SplitMix64) implementing [`rand::RngCore`].
//! - [`dist`]: probability distributions (Normal, Categorical with
//!   alias-method sampling, Gamma, Dirichlet).
//! - [`contingency`]: N-dimensional contingency tables with marginalization
//!   and conditioning — the data structure behind empirical differential
//!   fairness.
//! - [`estimate`]: the exact Dirichlet posterior sampler that builds the
//!   distribution class Θ from data (its mean is Eq. 7's smoothed
//!   estimate, which `df-core` computes per group).
//! - [`partial`]: mergeable partial counts — the commutative monoid behind
//!   sharded/streaming tallying of joint counts.
//! - [`summary`]: streaming moments and quantiles.
//! - [`wire`]: the varint/string/`f64` encoding and the bounded reader
//!   shared by the DFLT snapshot codec and the DFRL replay log.
//!
//! The crate is `no_unsafe` by policy and deterministic by construction: all
//! stochastic components take explicit generators seeded by the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contingency;
pub mod dist;
pub mod error;
pub mod estimate;
pub mod numerics;
pub mod partial;
pub mod rng;
pub mod special;
pub mod summary;
pub mod wire;

pub use contingency::ContingencyTable;
pub use error::{ProbError, Result};
pub use partial::{PartialCounts, Tally};
pub use rng::{DfRng, Pcg32, SplitMix64};
