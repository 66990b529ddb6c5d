//! A lightweight, dependency-free counter/gauge registry.
//!
//! Every subsystem that counts something (the [`MappingCache`], the
//! incremental engine, the runtime's event queue and fault layer,
//! explore's evaluators) snapshots its counters into a
//! [`MetricsRegistry`], and every `--json` report renders the registry
//! as a `metrics` object. The registry is deliberately dumb: an
//! insertion-ordered list of `(name, u64)` pairs with no global state,
//! no locks and no external dependencies, so publishing into it can
//! never perturb a deterministic run — the observer-effect guard the
//! tracing layer is held to as well.
//!
//! Names are dotted paths (`cache.fine_hits`, `queue.rehashes`,
//! `faults.injected`), grouping related counters without imposing any
//! hierarchy on the registry itself.
//!
//! [`MappingCache`]: crate::MappingCache
//!
//! # Examples
//!
//! ```
//! use amdrel_core::metrics::MetricsRegistry;
//!
//! let mut m = MetricsRegistry::new();
//! m.set("cache.fine_hits", 12);
//! m.add("engine.moves", 3);
//! m.add("engine.moves", 4);
//! assert_eq!(m.get("engine.moves"), Some(7));
//! assert_eq!(m.to_json(), r#"{"cache.fine_hits": 12, "engine.moves": 7}"#);
//! ```

use crate::json::escape;

/// An insertion-ordered collection of named `u64` metrics.
///
/// Insertion order is preserved in iteration and JSON output, so a
/// registry filled in a fixed program order renders byte-identically on
/// every run — the property the `--json` schemas rely on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, u64)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Set `name` to `value`, overwriting a previous value but keeping
    /// the name's original insertion position.
    pub fn set(&mut self, name: &str, value: u64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name.to_owned(), value)),
        }
    }

    /// Add `delta` to `name` (registering it at 0 first if absent).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = v.saturating_add(delta),
            None => self.entries.push((name.to_owned(), delta)),
        }
    }

    /// The current value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Render the registry as a single-line JSON object, names in
    /// insertion order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&escape(name));
            out.push_str("\": ");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites_in_place() {
        let mut m = MetricsRegistry::new();
        m.set("a", 1);
        m.set("b", 2);
        m.set("a", 9);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"], "overwrite keeps insertion order");
        assert_eq!(m.get("a"), Some(9));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn add_registers_and_accumulates() {
        let mut m = MetricsRegistry::new();
        m.add("hits", 3);
        m.add("hits", 4);
        assert_eq!(m.get("hits"), Some(7));
        assert_eq!(m.get("absent"), None);
    }

    #[test]
    fn json_is_insertion_ordered_and_escaped() {
        let mut m = MetricsRegistry::new();
        m.set("z.first", 1);
        m.set("a.second", 2);
        assert_eq!(m.to_json(), r#"{"z.first": 1, "a.second": 2}"#);
        assert_eq!(MetricsRegistry::new().to_json(), "{}");
    }
}
