//! The open shedding-policy registry: name → shedder factory.
//!
//! A policy is a **name plus a factory** ([`Policy`]). The six paper
//! policies are registered by default, and external crates add their own
//! with [`register_shedder`] — no edit to `themis-core` required. Every
//! runtime (simulator, engine, benchmark, `experiments` CLI) stores a
//! [`Policy`] handle and builds its per-node [`Shedder`] through it, so
//! a policy registered once is immediately runnable everywhere.
//!
//! Registry keys are the only names a policy has: [`Policy::name`],
//! [`ShedderRegistry::parse`] (the one parser, behind [`lookup_policy`]
//! and `experiments --policy=`) and every report/JSON field round-trip
//! through the same strings.
//!
//! ```
//! use themis_core::shedder::{lookup_policy, register_shedder, FifoShedder};
//!
//! // Built-ins are pre-registered.
//! let p = lookup_policy("balance-sic").unwrap();
//! assert_eq!(p.name(), "balance-sic");
//! let _shedder = p.build(42);
//!
//! // External policies join the same namespace.
//! register_shedder("doctest-fifo-clone", |_seed| Box::new(FifoShedder::new())).unwrap();
//! assert!(lookup_policy("doctest-fifo-clone").is_ok());
//! ```

use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use super::policy::{Policy, BUILTINS};
use super::Shedder;

/// Attempted to register a second policy under an existing key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicatePolicyError {
    /// The contested registry key.
    pub name: String,
}

impl fmt::Display for DuplicatePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shedding policy `{}` is already registered", self.name)
    }
}

impl std::error::Error for DuplicatePolicyError {}

/// A name did not resolve against the registry. The message lists every
/// registered key, so a CLI typo is actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicyError {
    /// The unresolvable input.
    pub input: String,
    /// Registry keys at lookup time, in registration order.
    pub registered: Vec<String>,
}

impl fmt::Display for UnknownPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown shedding policy `{}` (registered policies: {})",
            self.input,
            self.registered.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicyError {}

/// Normalises a CLI/user spelling onto registry-key form: trimmed,
/// lowercased, underscores to dashes.
fn normalise(s: &str) -> String {
    s.trim()
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c == '_' { '-' } else { c })
        .collect()
}

/// True when normalised input `norm` addresses registry key `name`:
/// exact, or the dashed spelling of a parenthesised key
/// (`balance-sic(lowest-first)` ⇔ `balance-sic-lowest-first`).
fn name_matches(name: &str, norm: &str) -> bool {
    norm == name || (name.contains('(') && norm == name.replace('(', "-").replace(')', ""))
}

/// An ordered name → factory registry of shedding policies.
#[derive(Clone, Default, Debug)]
pub struct ShedderRegistry {
    entries: Vec<Policy>,
}

impl ShedderRegistry {
    /// A registry pre-seeded with the six paper policies, in
    /// paper order (BALANCE-SIC first). `default()` is the empty one.
    pub fn with_builtins() -> Self {
        let mut r = ShedderRegistry::default();
        for (name, build) in BUILTINS {
            r.register(Policy::new(name, Arc::new(build)))
                .expect("builtin names are unique");
        }
        r
    }

    /// Registers `policy` under its name. Keys are first-come-first-kept:
    /// a duplicate is rejected so a late registration cannot silently
    /// shadow a policy experiments already reference.
    pub fn register(&mut self, policy: Policy) -> Result<(), DuplicatePolicyError> {
        if self.get(policy.name()).is_some() {
            return Err(DuplicatePolicyError {
                name: policy.name().to_string(),
            });
        }
        self.entries.push(policy);
        Ok(())
    }

    /// Exact lookup by registry key.
    pub fn get(&self, name: &str) -> Option<&Policy> {
        self.entries.iter().find(|p| p.name() == name)
    }

    /// Resolves a user spelling (case-insensitive, `_` ⇔ `-`, dashed
    /// parenthesised forms) to a policy, or an error listing every
    /// registered key.
    pub fn parse(&self, input: &str) -> Result<Policy, UnknownPolicyError> {
        let norm = normalise(input);
        self.entries
            .iter()
            .find(|p| name_matches(p.name(), &norm))
            .cloned()
            .ok_or_else(|| UnknownPolicyError {
                input: input.trim().to_string(),
                registered: self.names().map(String::from).collect(),
            })
    }

    /// Registry keys in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(Policy::name)
    }

    /// All registered policies, in registration order.
    pub fn policies(&self) -> &[Policy] {
        &self.entries
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The process-wide registry, created on first use with the six builtins.
fn global() -> &'static RwLock<ShedderRegistry> {
    static GLOBAL: OnceLock<RwLock<ShedderRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(ShedderRegistry::with_builtins()))
}

/// Registers a shedding policy in the process-wide registry. The name
/// becomes a registry key: parseable by [`lookup_policy`], accepted by
/// `experiments --policy=<name>`, listed in unknown-policy errors.
pub fn register_shedder(
    name: impl Into<Arc<str>>,
    factory: impl Fn(u64) -> Box<dyn Shedder> + Send + Sync + 'static,
) -> Result<(), DuplicatePolicyError> {
    global()
        .write()
        .expect("shedder registry poisoned")
        .register(Policy::new(name, Arc::new(factory)))
}

/// Resolves `name` against the process-wide registry (builtins plus
/// everything registered via [`register_shedder`]).
pub fn lookup_policy(name: &str) -> Result<Policy, UnknownPolicyError> {
    global()
        .read()
        .expect("shedder registry poisoned")
        .parse(name)
}

/// Snapshot of every registered policy, in registration order (builtins
/// first).
pub fn registered_policies() -> Vec<Policy> {
    global()
        .read()
        .expect("shedder registry poisoned")
        .policies()
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shedder::FifoShedder;

    #[test]
    fn builtins_round_trip_through_registry_keys() {
        // The naming seam, closed: for every registered builtin the
        // registry key, the Policy name and the parsed spelling agree, and
        // the factory builds a working shedder.
        let reg = ShedderRegistry::with_builtins();
        assert_eq!(reg.len(), BUILTINS.len());
        for (policy, (name, _)) in reg.policies().iter().zip(BUILTINS) {
            let key = policy.name();
            assert_eq!(key, name, "registry order is builtin order");
            assert_eq!(reg.parse(key).unwrap().name(), key, "parse round-trips");
            assert!(policy.build(7).select_to_keep(10, &[]).keep.is_empty());
        }
    }

    #[test]
    fn parse_accepts_cli_spellings_and_lists_keys_on_error() {
        let reg = ShedderRegistry::with_builtins();
        for (input, key) in [
            ("Balance-SIC", "balance-sic"),
            ("Balance_SIC", "balance-sic"),
            (" fifo ", "fifo"),
            ("balance-sic-lowest-first", "balance-sic(lowest-first)"),
            ("balance-sic-fifo-order", "balance-sic(fifo-order)"),
        ] {
            assert_eq!(reg.parse(input).unwrap().name(), key, "{input:?}");
        }
        let err = reg.parse("drop-everything").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("drop-everything"));
        for name in reg.names() {
            assert!(msg.contains(name), "error lists {name}");
        }
    }

    #[test]
    fn parse_rejects_truncated_spellings() {
        // A truncated `balance-sic-lowest-first` must not silently fall
        // back to plain BALANCE-SIC.
        let reg = ShedderRegistry::with_builtins();
        for input in [
            "balance-sic-",
            "balance-sic-lowest",
            "balance-siclowest-first",
        ] {
            assert!(reg.parse(input).is_err(), "{input:?} resolved");
        }
    }

    #[test]
    fn external_policies_register_and_resolve() {
        let mut reg = ShedderRegistry::with_builtins();
        reg.register(Policy::new(
            "keep-nothing",
            Arc::new(|_| Box::new(FifoShedder::new())),
        ))
        .unwrap();
        assert_eq!(reg.parse("Keep_Nothing").unwrap().name(), "keep-nothing");
        // Unknown-name errors now list the custom key too.
        let msg = reg.parse("nope").unwrap_err().to_string();
        assert!(msg.contains("keep-nothing"));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let mut reg = ShedderRegistry::with_builtins();
        let err = reg
            .register(Policy::new(
                "fifo",
                Arc::new(|_| Box::new(FifoShedder::new())),
            ))
            .unwrap_err();
        assert_eq!(err.name, "fifo");
        assert_eq!(reg.len(), BUILTINS.len());
    }

    #[test]
    fn global_registry_serves_builtins() {
        let p = lookup_policy("priority").unwrap();
        assert_eq!(p.name(), "priority");
        let registered = registered_policies();
        assert!(registered.len() >= BUILTINS.len());
        assert_eq!(registered[0], Policy::default(), "builtins come first");
    }

    #[test]
    fn policy_equality_and_conversion() {
        let a = Policy::default();
        let b = lookup_policy("balance-sic").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "balance-sic");
        assert_ne!(a, lookup_policy("fifo").unwrap());
    }
}
