//! Event structures: rooted DAGs of event variables with TCG-labelled arcs
//! (paper §3), and complex event types (structures with instantiated
//! variables).

use std::collections::BTreeMap;
use std::fmt;

use tgm_events::EventType;
use tgm_granularity::{Gran, Second};

use crate::error::StructureError;
use crate::tcg::Tcg;

/// Index of an event variable within an [`EventStructure`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl VarId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// An event structure `(W, A, Γ)`: a rooted DAG over event variables whose
/// arcs carry *sets* of TCGs, interpreted conjunctively (§3).
///
/// Built via [`StructureBuilder`], which validates acyclicity and
/// single-root reachability at [`build`](StructureBuilder::build) time.
#[derive(Clone)]
pub struct EventStructure {
    names: Vec<String>,
    /// Arcs keyed `(from, to)`, each with ≥1 TCG.
    arcs: BTreeMap<(VarId, VarId), Vec<Tcg>>,
    root: VarId,
    topo: Vec<VarId>,
    /// Reachability bit-matrix: row `a` (`⌈n/64⌉` words) has bit `b` set
    /// iff there is a directed path from `a` to `b` (including `a == b`).
    /// Computed once at build time.
    reach: Vec<u64>,
}

impl EventStructure {
    /// Number of variables `|W|`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the structure has no variables (never true: a structure has
    /// at least its root).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The root variable (reaches every other variable).
    pub fn root(&self) -> VarId {
        self.root
    }

    /// The display name of a variable.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// All variables in id order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> {
        (0..self.names.len()).map(VarId)
    }

    /// A topological order of the variables (root first).
    pub fn topo_order(&self) -> &[VarId] {
        &self.topo
    }

    /// All arcs with their TCG sets.
    pub fn arcs(&self) -> impl Iterator<Item = (VarId, VarId, &[Tcg])> {
        self.arcs.iter().map(|(&(a, b), c)| (a, b, c.as_slice()))
    }

    /// The TCGs on arc `(from, to)` (empty if the arc does not exist).
    pub fn constraints(&self, from: VarId, to: VarId) -> &[Tcg] {
        self.arcs
            .get(&(from, to))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether arc `(from, to)` exists.
    pub fn has_arc(&self, from: VarId, to: VarId) -> bool {
        self.arcs.contains_key(&(from, to))
    }

    /// Direct successors of `v`.
    pub fn children(&self, v: VarId) -> Vec<VarId> {
        self.arcs
            .range((v, VarId(0))..=(v, VarId(usize::MAX)))
            .map(|(&(_, b), _)| b)
            .collect()
    }

    /// Direct predecessors of `v`.
    pub fn parents(&self, v: VarId) -> Vec<VarId> {
        self.arcs
            .keys()
            .filter(|&&(_, b)| b == v)
            .map(|&(a, _)| a)
            .collect()
    }

    /// Variables with no outgoing arcs.
    pub fn sinks(&self) -> Vec<VarId> {
        self.vars()
            .filter(|&v| self.children(v).is_empty())
            .collect()
    }

    /// The distinct granularities appearing in `Γ` (the set `M` of §3.2).
    pub fn granularities(&self) -> Vec<Gran> {
        let mut out: Vec<Gran> = Vec::new();
        for cs in self.arcs.values() {
            for c in cs {
                if !out.contains(c.gran()) {
                    out.push(c.gran().clone());
                }
            }
        }
        out.sort();
        out
    }

    /// Whether there is a directed path from `a` to `b` (always true for
    /// `a == b`). `O(1)`: a lookup in the reachability matrix computed at
    /// build time.
    pub fn has_path(&self, a: VarId, b: VarId) -> bool {
        let (a, b) = (a.index(), b.index());
        let words = self.len().div_ceil(64);
        (self.reach[a * words + b / 64] >> (b % 64)) & 1 == 1
    }

    /// Whether the timestamp assignment (indexed by variable id) satisfies
    /// every TCG of every arc — i.e. whether it is a *complex event
    /// matching* the structure (§3, ignoring event types).
    pub fn satisfied_by(&self, times: &[Second]) -> bool {
        assert_eq!(times.len(), self.len(), "assignment arity mismatch");
        self.arcs.iter().all(|(&(a, b), cs)| {
            cs.iter()
                .all(|c| c.satisfied(times[a.index()], times[b.index()]))
        })
    }

    /// The maximum TCG range width `w = max(n − m)` appearing in `Γ` (the
    /// parameter of Theorem 2's complexity bound).
    pub fn max_range(&self) -> u64 {
        self.arcs
            .values()
            .flatten()
            .map(|c| c.hi() - c.lo())
            .max()
            .unwrap_or(0)
    }

    /// Total number of TCGs.
    pub fn constraint_count(&self) -> usize {
        self.arcs.values().map(Vec::len).sum()
    }
}

impl fmt::Debug for EventStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EventStructure({} vars, root {})", self.len(), self.name(self.root))?;
        for (a, b, cs) in self.arcs() {
            writeln!(
                f,
                "  {} -> {}: {}",
                self.name(a),
                self.name(b),
                cs.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(" & ")
            )?;
        }
        Ok(())
    }
}

/// Builder for [`EventStructure`].
#[derive(Default)]
pub struct StructureBuilder {
    names: Vec<String>,
    arcs: BTreeMap<(VarId, VarId), Vec<Tcg>>,
}

impl StructureBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with a display name (e.g. `"X0"`); returns its id.
    /// The first variable added is expected to be the root.
    pub fn var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.into());
        id
    }

    /// Adds the TCG `c` to arc `(from, to)` (creating the arc if needed).
    pub fn constrain(&mut self, from: VarId, to: VarId, c: Tcg) -> &mut Self {
        self.arcs.entry((from, to)).or_default().push(c);
        self
    }

    /// Validates and builds the structure: the graph must be acyclic, have
    /// no self-loops, and its first variable must reach every variable.
    pub fn build(self) -> Result<EventStructure, StructureError> {
        let n = self.names.len();
        if n == 0 {
            return Err(StructureError::Empty);
        }
        for &(a, b) in self.arcs.keys() {
            if a.index() >= n || b.index() >= n {
                return Err(StructureError::UnknownVariable);
            }
            if a == b {
                return Err(StructureError::SelfLoop(self.names[a.index()].clone()));
            }
        }
        // Kahn's algorithm for a topological order.
        let mut indeg = vec![0usize; n];
        for &(_, b) in self.arcs.keys() {
            indeg[b.index()] += 1;
        }
        let mut queue: Vec<VarId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(VarId)
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            topo.push(v);
            for (&(_, b), _) in self.arcs.range((v, VarId(0))..=(v, VarId(usize::MAX))) {
                indeg[b.index()] -= 1;
                if indeg[b.index()] == 0 {
                    queue.push(b);
                }
            }
        }
        if topo.len() != n {
            return Err(StructureError::Cyclic);
        }
        // Reachability, children before parents: each row is its own bit
        // OR its children's rows.
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        for &v in topo.iter().rev() {
            let v = v.index();
            reach[v * words + v / 64] |= 1 << (v % 64);
            for (&(_, c), _) in self
                .arcs
                .range((VarId(v), VarId(0))..=(VarId(v), VarId(usize::MAX)))
            {
                let c = c.index();
                for w in 0..words {
                    let bits = reach[c * words + w];
                    reach[v * words + w] |= bits;
                }
            }
        }
        let root = VarId(0);
        let s = EventStructure {
            names: self.names,
            arcs: self.arcs,
            root,
            topo,
            reach,
        };
        for v in s.vars() {
            if !s.has_path(root, v) {
                return Err(StructureError::Unreachable(s.name(v).to_owned()));
            }
        }
        Ok(s)
    }
}

/// A complex event type `(S, φ)` (§3): an event structure whose variables
/// are instantiated with event types.
#[derive(Clone, Debug)]
pub struct ComplexEventType {
    structure: EventStructure,
    /// `φ`, indexed by variable id.
    assignment: Vec<EventType>,
}

impl ComplexEventType {
    /// Pairs a structure with a variable-to-event-type assignment.
    pub fn new(structure: EventStructure, assignment: Vec<EventType>) -> Self {
        assert_eq!(
            assignment.len(),
            structure.len(),
            "assignment arity mismatch"
        );
        ComplexEventType {
            structure,
            assignment,
        }
    }

    /// The underlying structure `S`.
    pub fn structure(&self) -> &EventStructure {
        &self.structure
    }

    /// `φ(X)` for a variable.
    pub fn event_type(&self, v: VarId) -> EventType {
        self.assignment[v.index()]
    }

    /// The full assignment, indexed by variable id.
    pub fn assignment(&self) -> &[EventType] {
        &self.assignment
    }

    /// Whether the timed assignment (one `(type, timestamp)` per variable)
    /// is an occurrence of this complex event type: types match `φ` and all
    /// TCGs hold.
    pub fn occurred_by(&self, instance: &[(EventType, Second)]) -> bool {
        assert_eq!(instance.len(), self.structure.len());
        let types_ok = instance
            .iter()
            .zip(&self.assignment)
            .all(|(&(ty, _), &want)| ty == want);
        let times: Vec<Second> = instance.iter().map(|&(_, t)| t).collect();
        types_ok && self.structure.satisfied_by(&times)
    }
}

#[cfg(test)]
mod tests {
    use tgm_granularity::Calendar;

    use super::*;

    const DAY: i64 = 86_400;

    fn day_tcg(lo: u64, hi: u64) -> Tcg {
        Tcg::new(lo, hi, Calendar::standard().get("day").unwrap())
    }

    #[test]
    fn builder_diamond() {
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        let x3 = b.var("X3");
        b.constrain(x0, x1, day_tcg(0, 1));
        b.constrain(x0, x2, day_tcg(0, 5));
        b.constrain(x1, x3, day_tcg(0, 2));
        b.constrain(x2, x3, day_tcg(0, 2));
        let s = b.build().unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.root(), x0);
        assert_eq!(s.children(x0), vec![x1, x2]);
        assert_eq!(s.parents(x3), vec![x1, x2]);
        assert_eq!(s.sinks(), vec![x3]);
        assert!(s.has_path(x0, x3));
        assert!(!s.has_path(x1, x2));
        assert_eq!(s.topo_order()[0], x0);
        assert_eq!(s.max_range(), 5);
        assert_eq!(s.constraint_count(), 4);
    }

    /// Reachability rows span several 64-bit words past 64 variables.
    #[test]
    fn has_path_across_word_boundaries() {
        let mut b = StructureBuilder::new();
        let vars: Vec<VarId> = (0..150).map(|i| b.var(format!("X{i}"))).collect();
        // A chain 0 -> 1 -> ... -> 129, and 0 -> 130 -> ... -> 149.
        for w in vars[..130].windows(2) {
            b.constrain(w[0], w[1], day_tcg(0, 1));
        }
        b.constrain(vars[0], vars[130], day_tcg(0, 1));
        for w in vars[130..].windows(2) {
            b.constrain(w[0], w[1], day_tcg(0, 1));
        }
        let s = b.build().unwrap();
        assert!(s.has_path(vars[0], vars[129]));
        assert!(s.has_path(vars[63], vars[64]));
        assert!(s.has_path(vars[1], vars[128]));
        assert!(s.has_path(vars[130], vars[149]));
        assert!(s.has_path(vars[100], vars[100]));
        assert!(!s.has_path(vars[129], vars[0]));
        assert!(!s.has_path(vars[64], vars[63]));
        assert!(!s.has_path(vars[1], vars[130]));
        assert!(!s.has_path(vars[140], vars[129]));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, day_tcg(0, 1));
        b.constrain(x1, x0, day_tcg(0, 1));
        assert_eq!(b.build().unwrap_err(), StructureError::Cyclic);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        b.constrain(x0, x0, day_tcg(0, 1));
        assert!(matches!(b.build(), Err(StructureError::SelfLoop(_))));
    }

    #[test]
    fn unreachable_rejected() {
        let mut b = StructureBuilder::new();
        let _x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x1, x2, day_tcg(0, 1));
        assert!(matches!(b.build(), Err(StructureError::Unreachable(_))));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            StructureBuilder::new().build().unwrap_err(),
            StructureError::Empty
        );
    }

    #[test]
    fn single_variable_is_fine() {
        let mut b = StructureBuilder::new();
        b.var("X0");
        let s = b.build().unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.satisfied_by(&[42]));
    }

    #[test]
    fn satisfied_by_checks_all_arcs() {
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, day_tcg(1, 1));
        let s = b.build().unwrap();
        assert!(s.satisfied_by(&[0, DAY])); // next day
        assert!(!s.satisfied_by(&[0, 0])); // same day
        assert!(!s.satisfied_by(&[DAY, 0])); // wrong order
    }

    #[test]
    fn conjunction_on_one_arc() {
        // Same week AND at least 2 days later.
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, Tcg::new(0, 0, cal.get("week").unwrap()));
        b.constrain(x0, x1, Tcg::new(2, 10, cal.get("day").unwrap()));
        let s = b.build().unwrap();
        // Mon 2000-01-03 -> Wed 2000-01-05: same week, 2 days later.
        assert!(s.satisfied_by(&[2 * DAY, 4 * DAY]));
        // Mon -> Tue: same week but only 1 day later.
        assert!(!s.satisfied_by(&[2 * DAY, 3 * DAY]));
        // Fri 2000-01-07 -> Mon 2000-01-10: 3 days later but next week.
        assert!(!s.satisfied_by(&[6 * DAY, 9 * DAY]));
    }

    #[test]
    fn granularities_deduplicated() {
        let cal = Calendar::standard();
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        let x2 = b.var("X2");
        b.constrain(x0, x1, Tcg::new(0, 1, cal.get("day").unwrap()));
        b.constrain(x1, x2, Tcg::new(0, 1, cal.get("day").unwrap()));
        b.constrain(x0, x2, Tcg::new(0, 0, cal.get("week").unwrap()));
        let s = b.build().unwrap();
        let gs = s.granularities();
        assert_eq!(gs.len(), 2);
    }

    #[test]
    fn complex_event_type_occurrence() {
        let mut b = StructureBuilder::new();
        let x0 = b.var("X0");
        let x1 = b.var("X1");
        b.constrain(x0, x1, day_tcg(1, 1));
        let s = b.build().unwrap();
        let mut reg = tgm_events::TypeRegistry::new();
        let rise = reg.intern("IBM-rise");
        let fall = reg.intern("IBM-fall");
        let t = ComplexEventType::new(s, vec![rise, fall]);
        assert!(t.occurred_by(&[(rise, 0), (fall, DAY)]));
        assert!(!t.occurred_by(&[(fall, 0), (fall, DAY)])); // wrong type
        assert!(!t.occurred_by(&[(rise, 0), (fall, 3 * DAY)])); // wrong time
    }
}
