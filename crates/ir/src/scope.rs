//! Scoped environments for compiler passes.
//!
//! A pass over a binding chain that clones its whole environment at every
//! binder does O(n) work per binder and O(n²) in all. [`ScopedMap`] is the
//! linear alternative: one mutable map that a pass extends on entering a
//! binder and restores on leaving it.
//!
//! ```
//! use ps_ir::{ScopedMap, Symbol};
//! let x = Symbol::intern("x");
//! let mut env = ScopedMap::new();
//! let outer = env.bind(x, 1);
//! let inner = env.bind(x, 2);
//! assert_eq!(env.get(&x), Some(&2));
//! env.restore(inner);
//! assert_eq!(env.get(&x), Some(&1));
//! env.restore(outer);
//! assert!(!env.contains(&x));
//! ```

use crate::symbol::{Symbol, SymbolMap};

/// A map from names to `V` with block-structured shadowing.
///
/// [`ScopedMap::bind`] returns the entry it shadows; handing that back to
/// [`ScopedMap::restore`] when the scope ends undoes the binding. Scopes
/// nest, so restores happen in the reverse order of their binds.
#[derive(Clone, Debug)]
pub struct ScopedMap<V> {
    map: SymbolMap<V>,
}

/// The entry a binding shadowed (`None` if the name was unbound), to be
/// handed back to [`ScopedMap::restore`] when the binding's scope ends.
#[must_use = "restore the shadowed entry when the scope ends"]
#[derive(Debug)]
pub struct Shadowed<V> {
    key: Symbol,
    prev: Option<V>,
}

impl<V> Default for ScopedMap<V> {
    fn default() -> Self {
        ScopedMap {
            map: SymbolMap::default(),
        }
    }
}

impl<V> ScopedMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The innermost binding of `x`.
    pub fn get(&self, x: &Symbol) -> Option<&V> {
        self.map.get(x)
    }

    /// Whether `x` is bound.
    pub fn contains(&self, x: &Symbol) -> bool {
        self.map.contains_key(x)
    }

    /// Binds `x` to `v`, shadowing any outer binding of `x`.
    pub fn bind(&mut self, x: Symbol, v: V) -> Shadowed<V> {
        let prev = self.map.insert(x, v);
        Shadowed { key: x, prev }
    }

    /// Ends the scope of a binding: puts back the entry it shadowed.
    pub fn restore(&mut self, s: Shadowed<V>) {
        let _current = self.swap(s);
    }

    /// Puts back the entry `s` shadowed and returns the binding it
    /// replaces, so that the swap can itself be undone by another
    /// [`ScopedMap::restore`].
    pub fn swap(&mut self, s: Shadowed<V>) -> Shadowed<V> {
        let prev = match s.prev {
            Some(v) => self.map.insert(s.key, v),
            None => self.map.remove(&s.key),
        };
        Shadowed { key: s.key, prev }
    }
}

impl<V> FromIterator<(Symbol, V)> for ScopedMap<V> {
    fn from_iter<I: IntoIterator<Item = (Symbol, V)>>(iter: I) -> Self {
        ScopedMap {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_hides_and_reinstates_a_binding() {
        let x = Symbol::intern("x");
        let mut env: ScopedMap<u32> = [(x, 1)].into_iter().collect();
        let outer = env.bind(x, 2);
        // Hide the inner binding, then put it back.
        let inner = env.swap(outer);
        assert_eq!(env.get(&x), Some(&1));
        let outer = env.swap(inner);
        assert_eq!(env.get(&x), Some(&2));
        env.restore(outer);
        assert_eq!(env.get(&x), Some(&1));
    }

    #[test]
    fn restoring_an_unbound_name_removes_it() {
        let y = Symbol::intern("y");
        let mut env = ScopedMap::new();
        let s = env.bind(y, "v");
        assert!(env.contains(&y));
        env.restore(s);
        assert!(!env.contains(&y));
    }
}
