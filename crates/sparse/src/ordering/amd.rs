//! Approximate minimum degree ordering (Amestoy–Davis–Duff).

use crate::{CsrMatrix, Permutation};

/// Computes an approximate minimum-degree ordering of the pattern of
/// `A + Aᵀ`.
///
/// This is the quotient-graph AMD of Amestoy, Davis and Duff. Eliminating
/// a pivot `p` turns it into an *element* whose boundary `L_p` is the
/// union of its variable neighbours and the boundaries of its adjacent
/// elements (which it absorbs). Every variable `i ∈ L_p` then gets the
/// approximate **external** degree
///
/// ```text
/// d(i) = min( n − k − |i|,
///             d_old(i) + |L_p \ i|,
///             |A_i \ i| + |L_p \ i| + Σ_{e ∈ E_i \ p} |L_e \ L_p| )
/// ```
///
/// where one pass over `L_p` computes every `|L_e \ L_p|` at once. On top
/// of that bound:
///
/// * **aggressive absorption** — an element with `|L_e \ L_p| = 0` adds
///   nothing `p` does not already cover and is absorbed into `p` even
///   though `p` was not adjacent to it;
/// * **mass elimination** — a boundary variable left with no neighbour
///   but `p` is eliminated together with `p`;
/// * **supervariables** — boundary variables with identical adjacency
///   (found by hashing, confirmed by exact comparison) are merged, carry
///   their multiplicity as a weight and are eliminated as one;
/// * **postorder** — the result is a postorder of the assembly tree
///   (element → absorbing element), a topological order of the
///   elimination tree: same fill, but each subtree's columns of `L` end up
///   contiguous in storage.
///
/// Ties in degree go to the head of the degree list — the lowest index at
/// the start, the most recently updated variable afterwards — so the
/// permutation is a pure function of the pattern.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn amd_order(a: &CsrMatrix) -> Permutation {
    amd_with(a, |_, _, _| {})
}

/// [`amd_order`], reporting `(pivot, approximate degree, supervariable
/// weight)` as each pivot is selected — what the degree-bound test reads.
fn amd_with(a: &CsrMatrix, mut on_pivot: impl FnMut(usize, usize, usize)) -> Permutation {
    assert!(a.is_square(), "amd_order requires a square matrix");
    let mut g = QuotientGraph::new(a);
    while g.nel < g.n {
        let me = g.pop_min_degree();
        on_pivot(me, g.degree[me], g.nv[me] as usize);
        g.eliminate(me);
    }
    g.postorder()
}

const NONE: usize = usize::MAX;

/// The quotient graph of a partially eliminated matrix, in flat storage.
///
/// A node `i < n` is, over its lifetime, a *principal variable*
/// (`nv[i] > 0`, on a degree list), possibly a *non-principal* one
/// (`nv[i] == 0`: merged into the supervariable `parent[i]`, or
/// mass-eliminated with the pivot `parent[i]`), or an *element* (an
/// eliminated pivot; `w[i] == 0` once absorbed into `parent[i]`).
struct QuotientGraph {
    n: usize,
    /// Adjacency lists. A variable's list `iw[pe[i]..pe[i] + len[i]]`
    /// holds `elen[i]` elements followed by variables; an element's list
    /// holds its boundary variables. Dead entries are pruned lazily.
    iw: Vec<u32>,
    pe: Vec<usize>,
    len: Vec<usize>,
    elen: Vec<usize>,
    /// Supervariable weight; negated while the variable sits in the
    /// boundary of the element under construction.
    nv: Vec<isize>,
    /// Approximate external degree of a variable; `|L_e|` (weighted) of
    /// an element.
    degree: Vec<usize>,
    /// Mark array: `w[e] − wflg = |L_e \ L_p|` during a pivot's degree
    /// update, `w[i] == wflg` marks a list member while supervariables
    /// are compared, `w[e] == 0` is an absorbed element.
    w: Vec<u64>,
    wflg: u64,
    /// Assembly tree: absorbing element of an element, representative of
    /// a non-principal variable.
    parent: Vec<usize>,
    /// Eliminated pivots, in elimination order.
    pivots: Vec<usize>,
    /// Variables eliminated so far, by weight.
    nel: usize,
    /// Largest `|L_p|` so far: bounds every `w[e] − wflg`.
    lemax: u64,
    /// Doubly linked degree lists; `next` also chains the hash buckets
    /// and `prev` holds the hash of a boundary variable, which is off
    /// its degree list while they are in use.
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    mindeg: usize,
    bucket: Vec<usize>,
}

impl QuotientGraph {
    fn new(a: &CsrMatrix) -> Self {
        let n = a.nrows();
        assert!(u32::try_from(n).is_ok(), "amd_order stores indices as u32");
        let adj = a.symmetric_adjacency();
        let mut pe = Vec::with_capacity(n);
        let mut iw = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        for l in &adj {
            pe.push(iw.len());
            iw.extend(l.iter().map(|&u| u as u32));
        }
        let len: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut g = QuotientGraph {
            n,
            iw,
            pe,
            degree: len.clone(),
            len,
            elen: vec![0; n],
            nv: vec![1; n],
            w: vec![1; n],
            wflg: 2,
            parent: vec![NONE; n],
            pivots: Vec::with_capacity(n),
            nel: 0,
            lemax: 0,
            head: vec![NONE; n],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            mindeg: 0,
            bucket: vec![NONE; n],
        };
        // Head insertion in descending order: initial ties go to the
        // lowest index.
        for i in (0..n).rev() {
            g.list_insert(i, g.degree[i]);
        }
        g
    }

    fn list_insert(&mut self, i: usize, d: usize) {
        let h = self.head[d];
        self.next[i] = h;
        self.prev[i] = NONE;
        if h != NONE {
            self.prev[h] = i;
        }
        self.head[d] = i;
        self.mindeg = self.mindeg.min(d);
    }

    fn list_remove(&mut self, i: usize) {
        let (p, nx) = (self.prev[i], self.next[i]);
        if nx != NONE {
            self.prev[nx] = p;
        }
        if p != NONE {
            self.next[p] = nx;
        } else {
            self.head[self.degree[i]] = nx;
        }
    }

    /// Removes and returns the variable of least degree.
    fn pop_min_degree(&mut self) -> usize {
        while self.head[self.mindeg] == NONE {
            self.mindeg += 1;
        }
        let me = self.head[self.mindeg];
        self.list_remove(me);
        me
    }

    /// Eliminates the principal variable `me`: forms its element, updates
    /// the degrees of the element's boundary and merges or eliminates
    /// what became indistinguishable.
    fn eliminate(&mut self, me: usize) {
        self.pivots.push(me);
        let (start, end) = self.form_element(me);
        self.scan_external(start, end);
        self.update_boundary(me, start, end);
        self.lemax = self.lemax.max(self.degree[me] as u64);
        self.wflg += self.lemax;
        self.merge_indistinguishable(start, end);
        self.finish_element(me, start, end);
    }

    /// Builds `L_me = (A_me ∪ ⋃_{e ∈ E_me} L_e) \ me` as
    /// `iw[start..end]`, absorbing the elements of `E_me`, taking the
    /// boundary variables off their degree lists and negating their `nv`.
    fn form_element(&mut self, me: usize) -> (usize, usize) {
        self.nel += self.nv[me] as usize;
        self.nv[me] = -self.nv[me];
        let elenme = self.elen[me];
        let pme = self.pe[me];
        // The union is appended to `iw` and nothing is reclaimed: the
        // lists ever appended total at most nnz(A) + nnz(L).
        let start = self.iw.len();
        let mut degme = 0;
        for k in 0..=elenme {
            let (e, pj, ln) = if k < elenme {
                let e = self.iw[pme + k] as usize;
                (e, self.pe[e], self.len[e])
            } else {
                (me, pme + elenme, self.len[me] - elenme)
            };
            for p in pj..pj + ln {
                let i = self.iw[p] as usize;
                let nvi = self.nv[i];
                if nvi > 0 {
                    degme += nvi as usize;
                    self.nv[i] = -nvi;
                    self.iw.push(i as u32);
                    self.list_remove(i);
                }
            }
            if e != me {
                self.parent[e] = me;
                self.w[e] = 0;
            }
        }
        let end = self.iw.len();
        self.degree[me] = degme;
        self.pe[me] = start;
        self.len[me] = end - start;
        (start, end)
    }

    /// Leaves `w[e] − wflg = |L_e \ L_me|` for every live element `e`
    /// adjacent to a variable of `L_me`.
    fn scan_external(&mut self, start: usize, end: usize) {
        let wflg = self.wflg;
        for p in start..end {
            let i = self.iw[p] as usize;
            let nvi = (-self.nv[i]) as u64;
            for q in self.pe[i]..self.pe[i] + self.elen[i] {
                let e = self.iw[q] as usize;
                let we = self.w[e];
                if we >= wflg {
                    self.w[e] = we - nvi;
                } else if we != 0 {
                    self.w[e] = self.degree[e] as u64 + wflg - nvi;
                }
            }
        }
    }

    /// Prunes the lists of every `i ∈ L_me`, absorbs elements that `me`
    /// covers, mass-eliminates variables left with no other neighbour,
    /// and leaves in `degree[i]` the part of the bound that excludes
    /// `L_me` and `i` hashed into its bucket.
    fn update_boundary(&mut self, me: usize, start: usize, end: usize) {
        let wflg = self.wflg;
        let mut degme = self.degree[me];
        let mut nvpiv = -self.nv[me];
        for p in start..end {
            let i = self.iw[p] as usize;
            let p1 = self.pe[i];
            let p2 = p1 + self.elen[i];
            let p4 = p1 + self.len[i];
            let (mut pn, mut hash, mut deg) = (p1, 0usize, 0usize);
            for q in p1..p2 {
                let e = self.iw[q] as usize;
                let we = self.w[e];
                if we > wflg {
                    deg += (we - wflg) as usize;
                    self.iw[pn] = e as u32;
                    pn += 1;
                    hash += e;
                } else if we != 0 {
                    // Aggressive absorption: L_e ⊆ L_me.
                    self.parent[e] = me;
                    self.w[e] = 0;
                }
            }
            let p3 = pn;
            for q in p2..p4 {
                let j = self.iw[q] as usize;
                let nvj = self.nv[j];
                if nvj > 0 {
                    deg += nvj as usize;
                    self.iw[pn] = j as u32;
                    pn += 1;
                    hash += j;
                }
            }
            if pn == p1 {
                // Mass elimination: `i` is adjacent to nothing but `me`.
                let nvi = -self.nv[i];
                self.parent[i] = me;
                degme -= nvi as usize;
                nvpiv += nvi;
                self.nel += nvi as usize;
                self.nv[i] = 0;
            } else {
                self.degree[i] = self.degree[i].min(deg);
                // `me` joins the front of the element section; at least
                // one slot was freed (`me` itself or an absorbed element).
                self.iw[pn] = self.iw[p3];
                self.iw[p3] = self.iw[p1];
                self.iw[p1] = me as u32;
                self.len[i] = pn + 1 - p1;
                self.elen[i] = p3 + 1 - p1;
                let h = hash % self.n;
                self.next[i] = self.bucket[h];
                self.bucket[h] = i;
                self.prev[i] = h;
            }
        }
        self.degree[me] = degme;
        self.nv[me] = -nvpiv;
    }

    /// Merges boundary variables of identical adjacency into
    /// supervariables (same hash bucket, then an exact comparison).
    fn merge_indistinguishable(&mut self, start: usize, end: usize) {
        for p in start..end {
            let v = self.iw[p] as usize;
            if self.nv[v] >= 0 {
                continue;
            }
            let mut i = std::mem::replace(&mut self.bucket[self.prev[v]], NONE);
            while i != NONE && self.next[i] != NONE {
                let (ln, eln) = (self.len[i], self.elen[i]);
                // Both lists start with `me`; mark the rest of `i`'s.
                for q in self.pe[i] + 1..self.pe[i] + ln {
                    self.w[self.iw[q] as usize] = self.wflg;
                }
                let mut jlast = i;
                let mut j = self.next[i];
                while j != NONE {
                    let same = self.len[j] == ln
                        && self.elen[j] == eln
                        && (self.pe[j] + 1..self.pe[j] + ln)
                            .all(|q| self.w[self.iw[q] as usize] == self.wflg);
                    if same {
                        self.parent[j] = i;
                        self.nv[i] += self.nv[j];
                        self.nv[j] = 0;
                        j = self.next[j];
                        self.next[jlast] = j;
                    } else {
                        jlast = j;
                        j = self.next[j];
                    }
                }
                self.wflg += 1;
                i = self.next[i];
            }
        }
    }

    /// Completes the degrees of the surviving boundary variables, puts
    /// them back on their degree lists and drops the rest from `L_me`.
    fn finish_element(&mut self, me: usize, start: usize, end: usize) {
        let degme = self.degree[me];
        let nleft = self.n - self.nel;
        let mut dst = start;
        for p in start..end {
            let i = self.iw[p] as usize;
            let nvi = -self.nv[i];
            if nvi > 0 {
                self.nv[i] = nvi;
                let nvi = nvi as usize;
                let deg = (self.degree[i] + degme - nvi).min(nleft - nvi);
                self.degree[i] = deg;
                self.list_insert(i, deg);
                self.iw[dst] = i as u32;
                dst += 1;
            }
        }
        self.nv[me] = -self.nv[me];
        self.len[me] = dst - start;
    }

    /// Postorder of the assembly forest, each pivot followed by the
    /// variables merged into or mass-eliminated with it.
    fn postorder(mut self) -> Permutation {
        let n = self.n;
        // Child lists (elements) and member lists (non-principal
        // variables), both ascending: `head`/`next` are free again.
        self.head.fill(NONE);
        let mut member = vec![NONE; n];
        for &e in self.pivots.iter().rev() {
            let p = self.parent[e];
            if p != NONE {
                self.next[e] = self.head[p];
                self.head[p] = e;
            }
        }
        for i in (0..n).rev() {
            if self.nv[i] == 0 {
                // A representative may itself have been merged later:
                // find the pivot, then shorten the path for the others.
                let mut e = self.parent[i];
                while self.nv[e] == 0 {
                    e = self.parent[e];
                }
                let mut j = i;
                while self.nv[j] == 0 {
                    j = std::mem::replace(&mut self.parent[j], e);
                }
                self.next[i] = member[e];
                member[e] = i;
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut stack = Vec::new();
        for &root in &self.pivots {
            if self.parent[root] != NONE {
                continue;
            }
            stack.push(root);
            while let Some(&e) = stack.last() {
                let child = self.head[e];
                if child != NONE {
                    self.head[e] = self.next[child];
                    stack.push(child);
                } else {
                    stack.pop();
                    order.push(e);
                    let mut i = member[e];
                    while i != NONE {
                        order.push(i);
                        i = self.next[i];
                    }
                }
            }
        }
        Permutation::from_vec(order).expect("each variable eliminated exactly once")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LuOptions, OrderingKind, SymbolicLu};
    use proptest::prelude::*;

    fn grid(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |x: usize, y: usize| y * nx + x;
        let n = nx * ny;
        let mut t = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                t.push((idx(x, y), idx(x, y), 4.0));
                if x + 1 < nx {
                    t.push((idx(x, y), idx(x + 1, y), -1.0));
                    t.push((idx(x + 1, y), idx(x, y), -1.0));
                }
                if y + 1 < ny {
                    t.push((idx(x, y), idx(x, y + 1), -1.0));
                    t.push((idx(x, y + 1), idx(x, y), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// LU fill `nnz(L) + nnz(U)` under the given ordering, measured by
    /// the production symbolic analysis (`SymbolicLu::analyze`) — the
    /// exact quantity the factorization pays for, not a test-only
    /// re-derivation of elimination fill.
    fn lu_fill(a: &CsrMatrix, ordering: OrderingKind) -> usize {
        let opts = LuOptions {
            ordering,
            ..LuOptions::default()
        };
        SymbolicLu::analyze(a, &opts)
            .expect("test matrices factor")
            .fill_nnz()
    }

    #[test]
    fn amd_is_valid_permutation() {
        let a = grid(9, 7);
        let p = amd_order(&a);
        assert_eq!(p.len(), 63);
        assert!(Permutation::from_vec(p.as_slice().to_vec()).is_ok());
    }

    #[test]
    fn amd_beats_natural_ordering_on_grid() {
        let a = grid(14, 14);
        let nat = lu_fill(&a, OrderingKind::Natural);
        let amd = lu_fill(&a, OrderingKind::Amd);
        assert!(
            (amd as f64) < 0.8 * nat as f64,
            "amd fill {amd} not clearly below natural fill {nat}"
        );
    }

    #[test]
    fn amd_fill_on_80x80_laplacian_is_bounded() {
        // Exact counts: the loose additive degree bound this ordering
        // replaced gave 376,224 (11.88 × nnz(A)) here.
        let a = grid(80, 80);
        let amd = lu_fill(&a, OrderingKind::Amd);
        assert!(
            amd as f64 <= 8.0 * a.nnz() as f64,
            "amd fill {amd} above 8 × nnz(A) = {}",
            8 * a.nnz()
        );
        assert!(amd <= lu_fill(&a, OrderingKind::Rcm));
        assert!(amd <= lu_fill(&a, OrderingKind::Natural));
    }

    #[test]
    fn amd_on_chain_is_near_perfect() {
        // A path graph eliminates with zero fill under minimum degree:
        // L and U each hold the n diagonal entries plus one off-diagonal
        // entry per edge, and nothing else.
        let n = 40;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        assert_eq!(lu_fill(&a, OrderingKind::Amd), 2 * (2 * n - 1));
    }

    #[test]
    fn amd_handles_dense_row() {
        // A star graph: hub must be eliminated last.
        let n = 12;
        let mut t = vec![(0usize, 0usize, 1.0)];
        for i in 1..n {
            t.push((i, i, 1.0));
            t.push((0, i, 1.0));
            t.push((i, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, &t);
        let p = amd_order(&a);
        // The hub ties with the final leaf at degree 1 in the endgame, so
        // it must land in one of the last two positions.
        let pos = p.as_slice().iter().position(|&v| v == 0).unwrap();
        assert!(pos >= n - 2, "hub eliminated too early (position {pos})");
    }

    #[test]
    fn amd_empty_and_diagonal() {
        let a = CsrMatrix::identity(6);
        let p = amd_order(&a);
        assert_eq!(p.len(), 6);
        let e = CsrMatrix::zeros(0, 0);
        assert_eq!(amd_order(&e).len(), 0);
    }

    /// Number of not-yet-eliminated neighbours each variable has in the
    /// elimination graph when `order` reaches it, by brute force.
    fn elimination_degrees(a: &CsrMatrix, order: &[usize]) -> Vec<usize> {
        let n = a.nrows();
        let mut g = vec![vec![false; n]; n];
        for (i, l) in a.symmetric_adjacency().iter().enumerate() {
            for &j in l {
                g[i][j] = true;
            }
        }
        let mut live = vec![true; n];
        let mut degrees = vec![0; n];
        for &v in order {
            live[v] = false;
            let nbrs: Vec<usize> = (0..n).filter(|&u| live[u] && g[v][u]).collect();
            degrees[v] = nbrs.len();
            for &x in &nbrs {
                for &y in &nbrs {
                    g[x][y] = x != y;
                }
            }
        }
        degrees
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The property AMD rests on: the degree a pivot is selected
        /// with never undercounts its exact external degree.
        #[test]
        fn approximate_degree_bounds_exact_external_degree(
            n in 0usize..40,
            edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..160),
            hub in 0usize..3,
        ) {
            let mut t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
            if n > 0 {
                t.extend(edges.iter().map(|&(r, c)| (r % n, c % n, 1.0)));
                if hub == 0 {
                    t.extend((1..n).map(|i| (0, i, 1.0)));
                }
            }
            let a = CsrMatrix::from_triplets(n, n, &t);
            let mut pivots = Vec::new();
            let p = amd_with(&a, |me, degree, weight| pivots.push((me, degree, weight)));
            // The result is a topological order of the elimination tree
            // with each pivot ahead of its supervariable's other members,
            // all of them its neighbours: what a pivot sees uneliminated
            // there is its external degree plus those members.
            let exact = elimination_degrees(&a, p.as_slice());
            for &(me, degree, weight) in &pivots {
                prop_assert!(
                    degree + weight > exact[me],
                    "pivot {me}: approximate degree {degree} (weight {weight}) \
                     below exact external degree {}",
                    exact[me] + 1 - weight
                );
            }
        }
    }
}
