//! An *untyped* meta-level copying collector — the baseline the paper
//! argues against.
//!
//! This collector lives outside the language: it is ordinary Rust code that
//! walks machine values and copies reachable objects into a fresh region.
//! It is exactly the kind of "trusted garbage collector" §1 identifies as
//! the residual hole in PCC/TAL systems: nothing checks it, and a bug here
//! (a missed field, a stale address) silently corrupts the heap.
//!
//! It exists for two reasons:
//!
//! * as the comparison baseline for experiment E4 (what does running the
//!   collector *inside* the language cost relative to a native one?);
//! * as an oracle in tests: after an in-language collection, the live graph
//!   must be isomorphic to what the meta collector would have produced.
//!
//! Like Fig. 9's collector (and unlike Fig. 4's), it preserves sharing,
//! using a side table of forwarding addresses.

use std::collections::HashMap;

use ps_gc_lang::error::Result;
use ps_gc_lang::memory::Memory;
use ps_gc_lang::syntax::{RegionName, Value};

/// Statistics from one meta-level collection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Objects copied (unique heap cells).
    pub objects_copied: usize,
    /// Words copied.
    pub words_copied: usize,
    /// Forwarding-table hits (shared references that were *not* re-copied).
    pub sharing_hits: usize,
}

/// Copies everything reachable from `roots` into a fresh region and
/// reclaims all other data regions. Returns the new region, the rewritten
/// roots, and statistics.
///
/// # Errors
///
/// Fails on dangling addresses (which a type-safe heap cannot contain —
/// this collector, being untyped, has to just hope).
pub fn collect(mem: &mut Memory, roots: &[Value]) -> Result<(RegionName, Vec<Value>, MetaStats)> {
    let to = mem.alloc_region();
    let mut forwarded: HashMap<(RegionName, u32), (RegionName, u32)> = HashMap::new();
    let mut stats = MetaStats::default();
    let new_roots = roots
        .iter()
        .map(|r| copy_value(mem, r, to, &mut forwarded, &mut stats))
        .collect::<Result<Vec<_>>>()?;
    mem.only(&[to]);
    Ok((to, new_roots, stats))
}

fn copy_value(
    mem: &mut Memory,
    v: &Value,
    to: RegionName,
    forwarded: &mut HashMap<(RegionName, u32), (RegionName, u32)>,
    stats: &mut MetaStats,
) -> Result<Value> {
    match v {
        Value::Int(_) | Value::Var(_) | Value::Code(_) => Ok(v.clone()),
        Value::Addr(nu, loc) => {
            if nu.is_cd() {
                return Ok(v.clone());
            }
            if let Some(&(n2, l2)) = forwarded.get(&(*nu, *loc)) {
                stats.sharing_hits += 1;
                return Ok(Value::Addr(n2, l2));
            }
            let stored = mem.get(*nu, *loc)?.clone();
            let copied = copy_value(mem, &stored, to, forwarded, stats)?;
            stats.objects_copied += 1;
            stats.words_copied += ps_gc_lang::memory::value_words(&copied);
            let l2 = mem.put(to, copied)?;
            forwarded.insert((*nu, *loc), (to, l2));
            Ok(Value::Addr(to, l2))
        }
        Value::Pair(a, b) => Ok(Value::Pair(
            (copy_value(mem, a, to, forwarded, stats)?).into(),
            (copy_value(mem, b, to, forwarded, stats)?).into(),
        )),
        Value::PackTag {
            tvar,
            kind,
            tag,
            val,
            body_ty,
        } => Ok(Value::PackTag {
            tvar: *tvar,
            kind: *kind,
            tag: tag.clone(),
            val: (copy_value(mem, val, to, forwarded, stats)?).into(),
            body_ty: body_ty.clone(),
        }),
        Value::PackAlpha {
            avar,
            regions,
            witness,
            val,
            body_ty,
        } => Ok(Value::PackAlpha {
            avar: *avar,
            regions: regions.clone(),
            witness: witness.clone(),
            val: (copy_value(mem, val, to, forwarded, stats)?).into(),
            body_ty: body_ty.clone(),
        }),
        Value::PackRgn {
            rvar,
            bound,
            witness,
            val,
            body_ty,
        } => Ok(Value::PackRgn {
            rvar: *rvar,
            bound: bound.clone(),
            witness: *witness,
            val: (copy_value(mem, val, to, forwarded, stats)?).into(),
            body_ty: body_ty.clone(),
        }),
        Value::TagApp(f, tags, regions) => Ok(Value::TagApp(
            (copy_value(mem, f, to, forwarded, stats)?).into(),
            tags.clone(),
            regions.clone(),
        )),
        Value::Inl(x) => Ok(Value::Inl(
            (copy_value(mem, x, to, forwarded, stats)?).into(),
        )),
        Value::Inr(x) => Ok(Value::Inr(
            (copy_value(mem, x, to, forwarded, stats)?).into(),
        )),
    }
}

/// Builds a complete binary tree of pairs of the given depth in `region`,
/// returning the root value. Used by tests and the E1/E4 benchmarks to
/// synthesize heaps of known shape.
///
/// # Errors
///
/// Fails if `region` does not exist.
pub fn synth_tree(mem: &mut Memory, region: RegionName, depth: u32) -> Result<Value> {
    if depth == 0 {
        return Ok(Value::Int(1));
    }
    let a = synth_tree(mem, region, depth - 1)?;
    let b = synth_tree(mem, region, depth - 1)?;
    let loc = mem.put(region, Value::pair(a, b))?;
    Ok(Value::Addr(region, loc))
}

/// Builds a DAG: a chain of `depth` pair cells where both components point
/// at the *same* child — linear in cells, exponential in paths. The
/// workload for the sharing experiments (E2).
///
/// # Errors
///
/// Fails if `region` does not exist.
pub fn synth_dag(mem: &mut Memory, region: RegionName, depth: u32) -> Result<Value> {
    let mut cur = Value::Int(1);
    for _ in 0..depth {
        let loc = mem.put(region, Value::pair(cur.clone(), cur))?;
        cur = Value::Addr(region, loc);
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_gc_lang::memory::{GrowthPolicy, MemConfig};

    fn mem() -> Memory {
        Memory::new(MemConfig {
            region_budget: 1 << 20,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        })
    }

    #[test]
    fn copies_a_tree_exactly() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_tree(&mut m, r, 4).unwrap();
        let before = m.region(r).unwrap().words();
        let (to, roots, stats) = collect(&mut m, &[root]).unwrap();
        assert!(!m.has_region(r));
        assert_eq!(m.region(to).unwrap().words(), before);
        assert_eq!(stats.objects_copied, 15, "2^4 - 1 pair cells");
        assert_eq!(stats.sharing_hits, 0);
        assert_eq!(roots.len(), 1);
    }

    #[test]
    fn garbage_is_not_copied() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_tree(&mut m, r, 3).unwrap();
        // Unreachable garbage.
        synth_tree(&mut m, r, 5).unwrap();
        let (_, _, stats) = collect(&mut m, &[root]).unwrap();
        assert_eq!(stats.objects_copied, 7);
    }

    #[test]
    fn sharing_is_preserved() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_dag(&mut m, r, 20).unwrap();
        let (_, _, stats) = collect(&mut m, &[root]).unwrap();
        // 20 cells, each reachable along two edges; one copy each.
        assert_eq!(stats.objects_copied, 20);
        assert!(stats.sharing_hits > 0);
    }

    #[test]
    fn multiple_roots_share_the_forwarding_table() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_tree(&mut m, r, 3).unwrap();
        let (_, roots, stats) = collect(&mut m, &[root.clone(), root]).unwrap();
        assert_eq!(stats.objects_copied, 7, "second root is fully shared");
        assert_eq!(roots[0], roots[1]);
    }

    #[test]
    fn code_addresses_survive_unchanged() {
        let mut m = mem();
        let r = m.alloc_region();
        let cd_ref = Value::Addr(ps_gc_lang::syntax::CD, 0);
        let loc = m
            .put(r, Value::pair(cd_ref.clone(), Value::Int(2)))
            .unwrap();
        let (_, roots, _) = collect(&mut m, &[Value::Addr(r, loc)]).unwrap();
        let Value::Addr(to, l2) = roots[0] else {
            panic!()
        };
        match m.get(to, l2).unwrap() {
            Value::Pair(a, _) => assert_eq!(**a, cd_ref),
            other => panic!("bad copy {other:?}"),
        }
    }

    #[test]
    fn dangling_addresses_error() {
        let mut m = mem();
        let r = m.alloc_region();
        let bad = Value::Addr(RegionName(99), 0);
        let loc = m.put(r, bad).unwrap();
        assert!(collect(&mut m, &[Value::Addr(r, loc)]).is_err());
    }
}

/// A Cheney-style breadth-first copy (§10 lists Cheney copying as the
/// intended future-work traversal order): an explicit work queue instead of
/// recursion, still sharing-preserving. Behaviourally identical to
/// [`collect`] — tested against it — but with a bounded meta-stack
/// regardless of heap depth.
///
/// # Errors
///
/// Fails on dangling addresses.
pub fn collect_cheney(
    mem: &mut Memory,
    roots: &[Value],
) -> Result<(RegionName, Vec<Value>, MetaStats)> {
    let to = mem.alloc_region();
    let mut forwarded: HashMap<(RegionName, u32), (RegionName, u32)> = HashMap::new();
    let mut stats = MetaStats::default();
    // The "scan pointer": to-space slots whose contents still hold
    // from-space addresses.
    let mut scan: Vec<u32> = Vec::new();

    // Evacuates one cell (shallowly) and queues it for scanning.
    fn evacuate(
        mem: &mut Memory,
        nu: RegionName,
        loc: u32,
        to: RegionName,
        forwarded: &mut HashMap<(RegionName, u32), (RegionName, u32)>,
        scan: &mut Vec<u32>,
        stats: &mut MetaStats,
    ) -> Result<(RegionName, u32)> {
        if let Some(&dst) = forwarded.get(&(nu, loc)) {
            stats.sharing_hits += 1;
            return Ok(dst);
        }
        let stored = mem.get(nu, loc)?.clone();
        stats.objects_copied += 1;
        stats.words_copied += crate::meta::words_of(&stored);
        let l2 = mem.put(to, stored)?;
        forwarded.insert((nu, loc), (to, l2));
        scan.push(l2);
        Ok((to, l2))
    }

    // Rewrites the addresses inside a value shallowly, evacuating targets.
    fn scavenge(
        mem: &mut Memory,
        v: &Value,
        to: RegionName,
        forwarded: &mut HashMap<(RegionName, u32), (RegionName, u32)>,
        scan: &mut Vec<u32>,
        stats: &mut MetaStats,
    ) -> Result<Value> {
        match v {
            Value::Addr(nu, loc) if !nu.is_cd() => {
                let (n2, l2) = evacuate(mem, *nu, *loc, to, forwarded, scan, stats)?;
                Ok(Value::Addr(n2, l2))
            }
            Value::Pair(a, b) => Ok(Value::Pair(
                (scavenge(mem, a, to, forwarded, scan, stats)?).into(),
                (scavenge(mem, b, to, forwarded, scan, stats)?).into(),
            )),
            Value::PackTag {
                tvar,
                kind,
                tag,
                val,
                body_ty,
            } => Ok(Value::PackTag {
                tvar: *tvar,
                kind: *kind,
                tag: tag.clone(),
                val: (scavenge(mem, val, to, forwarded, scan, stats)?).into(),
                body_ty: body_ty.clone(),
            }),
            Value::PackAlpha {
                avar,
                regions,
                witness,
                val,
                body_ty,
            } => Ok(Value::PackAlpha {
                avar: *avar,
                regions: regions.clone(),
                witness: witness.clone(),
                val: (scavenge(mem, val, to, forwarded, scan, stats)?).into(),
                body_ty: body_ty.clone(),
            }),
            Value::PackRgn {
                rvar,
                bound,
                witness,
                val,
                body_ty,
            } => Ok(Value::PackRgn {
                rvar: *rvar,
                bound: bound.clone(),
                witness: *witness,
                val: (scavenge(mem, val, to, forwarded, scan, stats)?).into(),
                body_ty: body_ty.clone(),
            }),
            Value::TagApp(f, tags, regions) => Ok(Value::TagApp(
                (scavenge(mem, f, to, forwarded, scan, stats)?).into(),
                tags.clone(),
                regions.clone(),
            )),
            Value::Inl(x) => Ok(Value::Inl(
                (scavenge(mem, x, to, forwarded, scan, stats)?).into(),
            )),
            Value::Inr(x) => Ok(Value::Inr(
                (scavenge(mem, x, to, forwarded, scan, stats)?).into(),
            )),
            other => Ok(other.clone()),
        }
    }

    let new_roots = roots
        .iter()
        .map(|r| scavenge(mem, r, to, &mut forwarded, &mut scan, &mut stats))
        .collect::<Result<Vec<_>>>()?;

    // Breadth-first: process to-space slots until the scan pointer catches
    // the allocation pointer.
    let mut i = 0;
    while i < scan.len() {
        let loc = scan[i];
        i += 1;
        let stored = mem.get(to, loc)?.clone();
        let rewritten = scavenge(
            &mut *mem,
            &stored,
            to,
            &mut forwarded,
            &mut scan,
            &mut stats,
        )?;
        mem.set(to, loc, rewritten)?;
    }

    mem.only(&[to]);
    Ok((to, new_roots, stats))
}

/// The shallow word size of a stored value (shared by both traversals).
fn words_of(v: &Value) -> usize {
    ps_gc_lang::memory::value_words(v)
}

#[cfg(test)]
mod cheney_tests {
    use super::*;
    use ps_gc_lang::memory::{GrowthPolicy, MemConfig};

    fn mem() -> Memory {
        Memory::new(MemConfig {
            region_budget: 1 << 20,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 512,
        })
    }

    /// The canonical "heap shape" of a value: addresses replaced by a
    /// stable visit index so two heaps can be compared structurally.
    fn shape(mem: &Memory, v: &Value, ids: &mut HashMap<(RegionName, u32), usize>) -> String {
        match v {
            Value::Int(n) => format!("{n}"),
            Value::Addr(nu, loc) if !nu.is_cd() => {
                if let Some(id) = ids.get(&(*nu, *loc)) {
                    return format!("#{id}");
                }
                let id = ids.len();
                ids.insert((*nu, *loc), id);
                let stored = mem.get(*nu, *loc).expect("live");
                format!("#{id}={}", shape(mem, stored, ids))
            }
            Value::Addr(..) => "<cd>".to_string(),
            Value::Pair(a, b) => format!("({},{})", shape(mem, a, ids), shape(mem, b, ids)),
            Value::PackTag { val, .. } => format!("pack({})", shape(mem, val, ids)),
            Value::Inl(x) => format!("inl({})", shape(mem, x, ids)),
            Value::Inr(x) => format!("inr({})", shape(mem, x, ids)),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn cheney_matches_depth_first_on_trees() {
        let mut m1 = mem();
        let r1 = m1.alloc_region();
        let root1 = synth_tree(&mut m1, r1, 5).unwrap();
        let mut m2 = m1.clone();
        let (_, roots_df, s_df) = collect(&mut m1, std::slice::from_ref(&root1)).unwrap();
        let (_, roots_bf, s_bf) = collect_cheney(&mut m2, &[root1]).unwrap();
        assert_eq!(s_df.objects_copied, s_bf.objects_copied);
        let mut ids1 = HashMap::new();
        let mut ids2 = HashMap::new();
        assert_eq!(
            shape(&m1, &roots_df[0], &mut ids1),
            shape(&m2, &roots_bf[0], &mut ids2)
        );
    }

    #[test]
    fn cheney_preserves_sharing() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_dag(&mut m, r, 24).unwrap();
        let (_, _, stats) = collect_cheney(&mut m, &[root]).unwrap();
        assert_eq!(stats.objects_copied, 24);
        assert!(stats.sharing_hits > 0);
    }

    #[test]
    fn cheney_handles_deep_chains_without_deep_recursion() {
        // A left-spine list 50k deep: the depth-first collector would need
        // a 50k-deep meta stack; Cheney's queue keeps it flat. (The
        // recursion inside `scavenge` is bounded by the *immediate* value
        // shape, not the heap.)
        let mut m = mem();
        let r = m.alloc_region();
        let mut cur = Value::Int(0);
        for i in 0..50_000 {
            let loc = m.put(r, Value::pair(Value::Int(i), cur)).unwrap();
            cur = Value::Addr(r, loc);
        }
        let (_, _, stats) = collect_cheney(&mut m, &[cur]).unwrap();
        assert_eq!(stats.objects_copied, 50_000);
    }

    #[test]
    fn cheney_ignores_garbage() {
        let mut m = mem();
        let r = m.alloc_region();
        let root = synth_tree(&mut m, r, 3).unwrap();
        synth_tree(&mut m, r, 6).unwrap();
        let (_, _, stats) = collect_cheney(&mut m, &[root]).unwrap();
        assert_eq!(stats.objects_copied, 7);
    }
}
