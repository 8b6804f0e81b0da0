#![warn(missing_docs)]

//! # neurodeanon-core
//!
//! The primary contribution of *"De-anonymization Attacks on Neuroimaging
//! Datasets"* (Ravindra & Grama, SIGMOD 2021), on top of the workspace
//! substrates:
//!
//! * [`attack`] — [`attack::DeanonAttack`]: given a de-anonymized group
//!   matrix and an anonymous one, select the principal-features subspace by
//!   leverage scores of the de-anonymized matrix, correlate subjects across
//!   the reduced matrices, and match (Figure 3's workflow).
//! * [`matching`] — greedy argmax matching (the paper's rule), an optimal
//!   Hungarian assignment for the ablation, and the open-world
//!   score/decision layer ([`matching::match_scores`],
//!   [`matching::Decision`]).
//! * [`splits`] — deterministic seeded enrollment splits for open-world
//!   evaluation: only a fraction of query subjects are enrolled in the
//!   gallery, the rest query as impostors.
//! * [`task_id`] — the t-SNE task-identification attack (§3.3.2): stack all
//!   conditions, embed to 2-D, transfer labels by 1-NN.
//! * [`performance`] — task-performance prediction (§3.3.3): leverage
//!   features + linear SVR, nRMSE on held-out subjects.
//! * [`defense`] — the paper's §4 countermeasure: localize the signature
//!   edges with the attacker's own selection and add targeted noise.
//! * [`experiments`] — one driver per paper table/figure (DESIGN.md §3),
//!   consumed by the `repro` binary and the Criterion benches.
//! * [`serve`] — attack-as-a-service (DESIGN.md §1.7): a long-lived batched
//!   match server over a memoized [`attack::AttackPlan`] with backpressure,
//!   per-query deadlines, poison-query isolation, and deterministic worker
//!   respawn.
//!
//! ## Quickstart
//!
//! ```
//! use neurodeanon_core::attack::{AttackConfig, DeanonAttack};
//! use neurodeanon_datasets::{HcpCohort, HcpCohortConfig, Session, Task};
//!
//! let cohort = HcpCohort::generate(HcpCohortConfig::small(6, 1)).unwrap();
//! let known = cohort.group_matrix(Task::Rest, Session::One).unwrap();
//! let anon = cohort.group_matrix(Task::Rest, Session::Two).unwrap();
//! let attack = DeanonAttack::new(AttackConfig::default()).unwrap();
//! let outcome = attack.run(&known, &anon).unwrap();
//! assert!(outcome.accuracy > 0.5); // small cohorts identify easily
//! ```

pub mod attack;
pub mod defense;
pub mod error;
pub mod experiments;
pub mod matching;
pub mod performance;
pub mod serve;
pub mod splits;
pub mod task_id;

pub use attack::{
    match_with_features, AttackConfig, AttackOutcome, AttackPlan, DeanonAttack, DegradedInput,
    MASKED_MIN_OVERLAP,
};
pub use error::CoreError;
pub use matching::{Decision, MatchScore};
pub use serve::{
    MatchResponse, MatchServer, Query, QueryError, QueryResult, ServeConfig, ServeReport,
    SubmitError,
};
pub use splits::{enrollment_split, EnrollmentSplit};

/// Result alias for attack operations.
pub type Result<T> = std::result::Result<T, CoreError>;
