//! A process-wide registry of named predictor builders.
//!
//! The paper's catalog is closed: every Table 3 configuration is a
//! [`SchemeConfig`](crate::config::SchemeConfig) and enjoys the
//! monomorphized fast paths. Research predictors outside the catalog
//! (gshare, speculative-history GAg variants, instrumented schemes) used
//! to be special cases that each experiment driver wired up by hand. The
//! registry gives them a uniform entry point instead: register a builder
//! under a name once, then reference that name from a
//! [`Job`](../../tlabp_sim/plan/struct.Job.html)'s custom predictor spec.
//! Registered predictors run behind `Box<dyn BranchPredictor>` — the only
//! execution path that still pays dynamic dispatch, reserved for exactly
//! this extension seam.
//!
//! Builders must be `Send + Sync` because the execution engine resolves
//! them on the submitting thread and invokes them on worker threads.
//! Registering a name twice replaces the previous builder (last one
//! wins), so idempotent re-registration from repeated driver runs is
//! safe.
//!
//! # Example
//!
//! ```
//! use tlabp_core::automaton::Automaton;
//! use tlabp_core::registry;
//! use tlabp_core::schemes::Gshare;
//!
//! registry::register("gshare(10)", || Box::new(Gshare::new(10, Automaton::A2)));
//! let builder = registry::builder("gshare(10)").expect("just registered");
//! assert!(builder().name().starts_with("gshare("));
//! ```

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::predictor::BranchPredictor;

/// A shared, thread-safe factory for a boxed predictor.
pub type DynBuilder = Arc<dyn Fn() -> Box<dyn BranchPredictor + Send> + Send + Sync>;

fn table() -> &'static RwLock<HashMap<String, DynBuilder>> {
    static TABLE: OnceLock<RwLock<HashMap<String, DynBuilder>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Registers `builder` under `name`, replacing any previous registration.
pub fn register<F>(name: &str, builder: F)
where
    F: Fn() -> Box<dyn BranchPredictor + Send> + Send + Sync + 'static,
{
    table().write().expect("predictor registry lock").insert(name.to_owned(), Arc::new(builder));
}

/// Looks up the builder registered under `name`.
#[must_use]
pub fn builder(name: &str) -> Option<DynBuilder> {
    table().read().expect("predictor registry lock").get(name).cloned()
}

/// Every registered name, sorted.
#[must_use]
pub fn names() -> Vec<String> {
    let mut names: Vec<String> =
        table().read().expect("predictor registry lock").keys().cloned().collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Automaton;
    use crate::schemes::Gshare;

    #[test]
    fn register_and_build() {
        register("test-registry-gshare", || Box::new(Gshare::new(8, Automaton::A2)));
        let predictor = builder("test-registry-gshare").expect("registered")();
        assert!(predictor.name().starts_with("gshare("));
        assert!(names().contains(&"test-registry-gshare".to_owned()));
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        assert!(builder("test-registry-no-such-predictor").is_none());
    }

    #[test]
    fn re_registration_replaces() {
        register("test-registry-replaced", || Box::new(Gshare::new(6, Automaton::A2)));
        register("test-registry-replaced", || Box::new(Gshare::new(12, Automaton::A2)));
        let predictor = builder("test-registry-replaced").expect("registered")();
        assert!(predictor.name().contains("12-sr"), "last registration wins: {}", predictor.name());
    }
}
