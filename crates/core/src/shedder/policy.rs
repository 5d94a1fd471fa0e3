//! A shedding policy: a registry key plus the factory that builds its
//! per-node [`Shedder`], and the six paper policies every registry is
//! seeded with.
//!
//! A policy is named only by its registry key. Runtimes hold a [`Policy`]
//! handle and call [`Policy::build`] once per node; user input resolves
//! through [`lookup_policy`](super::lookup_policy).

use std::fmt;
use std::sync::Arc;

use super::balance_sic::{BalanceSicShedder, BatchOrder};
use super::random::RandomShedder;
use super::variants::{FifoShedder, PriorityShedder};
use super::Shedder;

/// A shedder factory: seed in, boxed [`Shedder`] out.
pub type ShedderFactory = Arc<dyn Fn(u64) -> Box<dyn Shedder> + Send + Sync>;

/// A builtin policy's shedder constructor.
type BuiltinFn = fn(u64) -> Box<dyn Shedder>;

/// The six paper policies as `(registry key, constructor)`, in registry
/// order. The first is the [`Policy::default`].
pub(super) const BUILTINS: [(&str, BuiltinFn); 6] = [
    // The paper's BALANCE-SIC fair shedder (Algorithm 1).
    ("balance-sic", |seed| Box::new(BalanceSicShedder::new(seed))),
    // Random shedding (the §7.2 baseline).
    ("random", |seed| Box::new(RandomShedder::new(seed))),
    // Drop-from-tail (bounded queue) baseline.
    ("fifo", |_| Box::new(FifoShedder::new())),
    // Admission control: lowest query ids are served to saturation, the
    // rest starve (the node-local analogue of §7.5's FIT LP).
    ("priority", |_| Box::new(PriorityShedder::new())),
    // Ablation: Algorithm 1 admitting *lowest*-SIC batches first.
    ("balance-sic(lowest-first)", |seed| {
        Box::new(BalanceSicShedder::with_order(
            seed,
            BatchOrder::LowestSicFirst,
        ))
    }),
    // Ablation: Algorithm 1 with arrival-order admission.
    ("balance-sic(fifo-order)", |seed| {
        Box::new(BalanceSicShedder::with_order(seed, BatchOrder::Fifo))
    }),
];

/// A cheaply clonable policy handle: a registry key plus its factory.
/// Runtimes store this in their configs and call [`Policy::build`] once
/// per node.
#[derive(Clone)]
pub struct Policy {
    name: Arc<str>,
    factory: ShedderFactory,
}

impl Policy {
    /// Wraps a factory under `name` (the registry key it will be known
    /// by, if registered).
    pub fn new(name: impl Into<Arc<str>>, factory: ShedderFactory) -> Self {
        Policy {
            name: name.into(),
            factory,
        }
    }

    /// The canonical policy name (a registry key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instantiates the shedder with a node-specific seed.
    pub fn build(&self, seed: u64) -> Box<dyn Shedder> {
        (self.factory)(seed)
    }
}

impl fmt::Debug for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Policy").field("name", &self.name).finish()
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl PartialEq for Policy {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}
impl Eq for Policy {}

impl Default for Policy {
    /// The paper's BALANCE-SIC shedder.
    fn default() -> Self {
        let (name, build) = BUILTINS[0];
        Policy::new(name, Arc::new(build))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_policy_builds_a_shedder() {
        for (name, build) in BUILTINS {
            let d = build(42).select_to_keep(10, &[]);
            assert!(d.keep.is_empty(), "{name}");
        }
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<&str> = BUILTINS.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "balance-sic",
                "random",
                "fifo",
                "priority",
                "balance-sic(lowest-first)",
                "balance-sic(fifo-order)",
            ]
        );
        assert_eq!(names.iter().collect::<HashSet<_>>().len(), names.len());
        assert_eq!(Policy::default().to_string(), "balance-sic");
    }
}
