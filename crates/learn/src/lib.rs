//! # df-learn — machine-learning substrate
//!
//! From-scratch learners used by the paper's case study (§6) and worked
//! examples:
//!
//! - [`linalg`]: dense vector/matrix kernels and a Cholesky solver.
//! - [`optim`]: gradient-descent optimizers with convergence tracking.
//! - [`logistic`]: L2-regularized logistic regression trained by Newton
//!   (IRLS) or SGD — the classifier of Table 3.
//! - [`fair`]: differential-fairness-regularized logistic regression,
//!   implementing the paper's stated future-work direction (a learner that
//!   trades ε against accuracy with a tunable penalty).
//! - [`metrics`]: error rate, confusion matrices, log-loss, AUC.
//! - [`model_selection`]: fairness-aware cross-validation and selection
//!   under an ε budget (the hyper-parameter-tuning use case of §1).
//! - [`threshold`]: score-threshold mechanisms — the Figure 2 worked
//!   example's hiring rule.
//! - [`pipeline`]: the Table 3 feature-selection sweep harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fair;
pub mod linalg;
pub mod logistic;
pub mod metrics;
pub mod model_selection;
pub mod optim;
pub mod pipeline;
pub mod threshold;

pub use error::{LearnError, Result};
pub use logistic::LogisticRegression;
