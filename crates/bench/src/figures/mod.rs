//! One module per evaluation artefact (table or figure), each exposing a
//! data-producing function plus a text renderer so the binary and the
//! integration tests share one implementation.

pub mod ablation;
pub mod adversarial;
pub mod churn;
pub mod correlated;
pub mod correlation;
pub mod dynamics;
pub mod fairness;
pub mod federated;
pub mod overhead;
pub mod parity;
pub mod queries;
pub mod recovery;
pub mod related;
pub mod scalability;
pub mod scale;
pub mod tables;
pub mod trace;
