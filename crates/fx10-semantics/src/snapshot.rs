//! Durable snapshots of an in-flight exploration.
//!
//! A checkpoint freezes everything the work-stealing explorer needs to
//! continue after a process death: the interner's statement/tree/array
//! tables, the sharded visited set, the pending frontier, and the
//! accumulated verdict counters. The bytes live in the
//! [`fx10_robust::snapshot`] container (versioned sections + trailing
//! checksum); this module owns the section payloads and the
//! capture/restore bridges to the [`Interner`].
//!
//! ## Consistency
//!
//! Checkpoints are taken at a *safepoint*: every worker is parked at
//! the top of its loop, holding no in-flight state key. At that point
//! `visited = expanded ∪ frontier` and the pending counter equals the
//! frontier size, so a resumed run explores exactly the states an
//! uninterrupted run would have — the kill-and-resume differential test
//! pins byte-identical digests, MHP pairs and verdicts.
//!
//! ## Identity
//!
//! A snapshot embeds a [`fingerprint`] of the program text, the initial
//! array state and the state-shaping flags. Resuming against anything
//! else is refused with a typed error — a snapshot can never be
//! silently replayed onto the wrong program. The state *budget* is
//! deliberately excluded: resuming a truncated run with a larger budget
//! is a feature, not a mismatch.

use crate::intern::{state_parts, ArrayId, Interner, StmtId, TNode, TreeId};
use crate::state::ArrayState;
use crate::ExploreConfig;
use fx10_robust::snapshot::{fnv1a64, Cursor, SectionBuf, Snapshot, SnapshotError, SnapshotWriter};
use fx10_robust::Fx10Error;
use fx10_syntax::{Expr, FuncId, Instr, InstrKind, Label, Program, Stmt};
use std::path::Path;

const SEC_META: u32 = 1;
const SEC_STMTS: u32 = 2;
const SEC_TREES: u32 = 3;
const SEC_ARRAYS: u32 = 4;
const SEC_VISITED: u32 = 5;
const SEC_FRONTIER: u32 = 6;

/// Identifies the (program, input, state-shaping) triple a snapshot
/// belongs to. Stable across runs and platforms (FNV-1a over the
/// pretty-printed program, the initial cells and the shaping flags).
pub fn fingerprint(p: &Program, input: &[i64], config: &ExploreConfig) -> u64 {
    let mut bytes = fx10_syntax::pretty::program(p).into_bytes();
    for c in ArrayState::with_input(p, input).cells() {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    bytes.push(config.canonical_dedup as u8);
    bytes.push(config.normalize_admin as u8);
    fnv1a64(&bytes)
}

/// A decoded (or about-to-be-written) explorer checkpoint.
///
/// Ids are *old* ids — dense indices into the `stmts`/`trees`/`arrays`
/// tables as they were numbered in the run that wrote the snapshot.
/// [`ExplorerSnapshot::restore`] re-interns everything and hands back
/// old→new id maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorerSnapshot {
    /// See [`fingerprint`].
    pub fingerprint: u64,
    /// Terminal (`√`) states counted so far.
    pub terminals: u64,
    /// Theorem 1 verdict so far.
    pub deadlock_free: bool,
    /// Work units charged to the meter so far.
    pub ticks: u64,
    /// Interned statements in interning order: head instruction + old
    /// tail id (tail ids always precede their referrer).
    pub stmts: Vec<(Instr, Option<u32>)>,
    /// Interned tree nodes in interning order: `(tag, a, b)` with tag
    /// 0 = `√`, 1 = `⟨s⟩` (a = stmt), 2 = `▷`, 3 = `∥` (a, b = children,
    /// always smaller than the node's own id).
    pub trees: Vec<(u8, u32, u32)>,
    /// Interned array states in interning order.
    pub arrays: Vec<Vec<i64>>,
    /// Every state admitted so far (packed old `(array, tree)` keys).
    pub visited: Vec<u64>,
    /// Admitted but not yet expanded states — the work to resume with.
    /// Always a subset of `visited`.
    pub frontier: Vec<u64>,
}

fn put_stmt(buf: &mut SectionBuf, s: &Stmt) {
    buf.put_u32(s.instrs().len() as u32);
    for i in s.instrs() {
        put_instr(buf, i);
    }
}

fn put_instr(buf: &mut SectionBuf, i: &Instr) {
    buf.put_u32(i.label.0);
    match &i.kind {
        InstrKind::Skip => buf.put_u8(0),
        InstrKind::Assign { idx, expr } => {
            buf.put_u8(1);
            buf.put_usize(*idx);
            match expr {
                Expr::Const(c) => {
                    buf.put_u8(0);
                    buf.put_i64(*c);
                }
                Expr::Plus1(d) => {
                    buf.put_u8(1);
                    buf.put_usize(*d);
                }
            }
        }
        InstrKind::While { idx, body } => {
            buf.put_u8(2);
            buf.put_usize(*idx);
            put_stmt(buf, body);
        }
        InstrKind::Async { body } => {
            buf.put_u8(3);
            put_stmt(buf, body);
        }
        InstrKind::Finish { body } => {
            buf.put_u8(4);
            put_stmt(buf, body);
        }
        InstrKind::Call { callee } => {
            buf.put_u8(5);
            buf.put_u32(callee.0);
        }
    }
}

fn get_stmt(c: &mut Cursor<'_>, depth: usize) -> Result<Stmt, SnapshotError> {
    let n = c.get_u32()? as usize;
    // A section can't physically hold more instructions than bytes.
    if n == 0 || n > c.remaining() {
        return Err(SnapshotError::Malformed(format!(
            "statement with implausible instruction count {n}"
        )));
    }
    let mut instrs = Vec::with_capacity(n);
    for _ in 0..n {
        instrs.push(get_instr(c, depth)?);
    }
    Stmt::new(instrs).map_err(|_| SnapshotError::Malformed("empty statement".into()))
}

fn get_instr(c: &mut Cursor<'_>, depth: usize) -> Result<Instr, SnapshotError> {
    if depth > 64 {
        return Err(SnapshotError::Malformed(
            "statement nesting deeper than any parser output".into(),
        ));
    }
    let label = Label(c.get_u32()?);
    let kind = match c.get_u8()? {
        0 => InstrKind::Skip,
        1 => {
            let idx = c.get_usize()?;
            let expr = match c.get_u8()? {
                0 => Expr::Const(c.get_i64()?),
                1 => Expr::Plus1(c.get_usize()?),
                t => return Err(SnapshotError::Malformed(format!("unknown expr tag {t}"))),
            };
            InstrKind::Assign { idx, expr }
        }
        2 => InstrKind::While {
            idx: c.get_usize()?,
            body: get_stmt(c, depth + 1)?,
        },
        3 => InstrKind::Async {
            body: get_stmt(c, depth + 1)?,
        },
        4 => InstrKind::Finish {
            body: get_stmt(c, depth + 1)?,
        },
        5 => InstrKind::Call {
            callee: FuncId(c.get_u32()?),
        },
        t => return Err(SnapshotError::Malformed(format!("unknown instr tag {t}"))),
    };
    Ok(Instr { label, kind })
}

impl ExplorerSnapshot {
    /// Serializes into the versioned, checksummed container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();

        let mut meta = SectionBuf::new();
        meta.put_u64(self.fingerprint);
        meta.put_u8(self.deadlock_free as u8);
        meta.put_u64(self.terminals);
        meta.put_u64(self.ticks);
        w.add_section(SEC_META, meta);

        let mut stmts = SectionBuf::new();
        stmts.put_u32(self.stmts.len() as u32);
        for (head, tail) in &self.stmts {
            put_instr(&mut stmts, head);
            match tail {
                None => stmts.put_u8(0),
                Some(t) => {
                    stmts.put_u8(1);
                    stmts.put_u32(*t);
                }
            }
        }
        w.add_section(SEC_STMTS, stmts);

        let mut trees = SectionBuf::new();
        trees.put_u32(self.trees.len() as u32);
        for &(tag, a, b) in &self.trees {
            trees.put_u8(tag);
            trees.put_u32(a);
            trees.put_u32(b);
        }
        w.add_section(SEC_TREES, trees);

        let mut arrays = SectionBuf::new();
        arrays.put_u32(self.arrays.len() as u32);
        for cells in &self.arrays {
            arrays.put_u32(cells.len() as u32);
            for &c in cells {
                arrays.put_i64(c);
            }
        }
        w.add_section(SEC_ARRAYS, arrays);

        let mut visited = SectionBuf::new();
        visited.put_u64(self.visited.len() as u64);
        for &k in &self.visited {
            visited.put_u64(k);
        }
        w.add_section(SEC_VISITED, visited);

        let mut frontier = SectionBuf::new();
        frontier.put_u64(self.frontier.len() as u64);
        for &k in &self.frontier {
            frontier.put_u64(k);
        }
        w.add_section(SEC_FRONTIER, frontier);

        w.finish()
    }

    /// Parses and *fully validates* a snapshot: container framing first
    /// (magic, version, checksum), then every cross-reference — tail ids
    /// precede their statement, tree children precede their node, state
    /// keys point into the tables, the frontier is a subset of the
    /// visited set. A malformed file is a typed error, never a panic or
    /// a silently wrong resume.
    pub fn from_bytes(bytes: &[u8]) -> Result<ExplorerSnapshot, SnapshotError> {
        let snap = Snapshot::parse(bytes)?;

        let mut c = snap.section(SEC_META)?;
        let fingerprint = c.get_u64()?;
        let deadlock_free = match c.get_u8()? {
            0 => false,
            1 => true,
            b => return Err(SnapshotError::Malformed(format!("bad flag byte {b}"))),
        };
        let terminals = c.get_u64()?;
        let ticks = c.get_u64()?;
        c.done()?;

        let mut c = snap.section(SEC_STMTS)?;
        let n = c.get_u32()? as usize;
        let mut stmts = Vec::with_capacity(n.min(1 << 20));
        for i in 0..n {
            let head = get_instr(&mut c, 0)?;
            let tail = match c.get_u8()? {
                0 => None,
                1 => {
                    let t = c.get_u32()?;
                    if t as usize >= i {
                        return Err(SnapshotError::Malformed(format!(
                            "statement {i} references tail {t} that does not precede it"
                        )));
                    }
                    Some(t)
                }
                b => return Err(SnapshotError::Malformed(format!("bad tail marker {b}"))),
            };
            stmts.push((head, tail));
        }
        c.done()?;

        let mut c = snap.section(SEC_TREES)?;
        let n = c.get_u32()? as usize;
        let mut trees = Vec::with_capacity(n.min(1 << 20));
        for i in 0..n {
            let (tag, a, b) = (c.get_u8()?, c.get_u32()?, c.get_u32()?);
            match tag {
                0 => {}
                1 => {
                    if a as usize >= stmts.len() {
                        return Err(SnapshotError::Malformed(format!(
                            "tree {i} references unknown statement {a}"
                        )));
                    }
                }
                2 | 3 => {
                    if a as usize >= i || b as usize >= i {
                        return Err(SnapshotError::Malformed(format!(
                            "tree {i} references children ({a},{b}) that do not precede it"
                        )));
                    }
                }
                t => return Err(SnapshotError::Malformed(format!("unknown tree tag {t}"))),
            }
            trees.push((tag, a, b));
        }
        c.done()?;

        let mut c = snap.section(SEC_ARRAYS)?;
        let n = c.get_u32()? as usize;
        let mut arrays = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let len = c.get_u32()? as usize;
            // checked_mul: a corrupted length field must become a typed
            // error, not an overflow or an OOM-sized allocation.
            if len.checked_mul(8).is_none_or(|b| b > c.remaining()) {
                return Err(SnapshotError::Truncated);
            }
            let mut cells = Vec::with_capacity(len);
            for _ in 0..len {
                cells.push(c.get_i64()?);
            }
            arrays.push(cells);
        }
        c.done()?;

        let read_keys = |c: &mut Cursor<'_>| -> Result<Vec<u64>, SnapshotError> {
            let n = c.get_usize()?;
            if n.checked_mul(8).is_none_or(|b| b > c.remaining()) {
                return Err(SnapshotError::Truncated);
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                let k = c.get_u64()?;
                let (a, t) = state_parts(k);
                if a.0 as usize >= arrays.len() || t.0 as usize >= trees.len() {
                    return Err(SnapshotError::Malformed(format!(
                        "state key ({},{}) points outside the tables",
                        a.0, t.0
                    )));
                }
                keys.push(k);
            }
            Ok(keys)
        };

        let mut c = snap.section(SEC_VISITED)?;
        let visited = read_keys(&mut c)?;
        c.done()?;

        let mut c = snap.section(SEC_FRONTIER)?;
        let frontier = read_keys(&mut c)?;
        c.done()?;

        let visited_set: std::collections::HashSet<u64> = visited.iter().copied().collect();
        if !frontier.iter().all(|k| visited_set.contains(k)) {
            return Err(SnapshotError::Malformed(
                "frontier contains a state missing from the visited set".into(),
            ));
        }

        Ok(ExplorerSnapshot {
            fingerprint,
            terminals,
            deadlock_free,
            ticks,
            stmts,
            trees,
            arrays,
            visited,
            frontier,
        })
    }

    /// Freezes the interner tables (everything interned so far) plus the
    /// given visited/frontier keys and verdict counters. Only call at a
    /// safepoint — the caller guarantees no worker is mid-expansion.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        interner: &Interner,
        fingerprint: u64,
        terminals: u64,
        deadlock_free: bool,
        ticks: u64,
        visited: Vec<u64>,
        frontier: Vec<u64>,
    ) -> ExplorerSnapshot {
        let (n_stmts, n_trees, n_arrays) = interner.counts();
        let stmts = (0..n_stmts as u32)
            .map(|i| {
                let id = StmtId(i);
                (
                    interner.stmt(id).head().clone(),
                    interner.stmt_tail(id).map(|t| t.0),
                )
            })
            .collect();
        let trees = (0..n_trees as u32)
            .map(|i| match interner.node(TreeId(i)) {
                TNode::Done => (0u8, 0u32, 0u32),
                TNode::Stm(s) => (1, s.0, 0),
                TNode::Seq(a, b) => (2, a.0, b.0),
                TNode::Par(a, b) => (3, a.0, b.0),
            })
            .collect();
        let arrays = (0..n_arrays as u32)
            .map(|i| interner.cells(ArrayId(i)).to_vec())
            .collect();
        ExplorerSnapshot {
            fingerprint,
            terminals,
            deadlock_free,
            ticks,
            stmts,
            trees,
            arrays,
            visited,
            frontier,
        }
    }

    /// Re-interns every table into `interner` and returns the old→new id
    /// maps `(stmts, trees, arrays)`. Entries are decoded in order, so
    /// every reference is already mapped when its referrer arrives (the
    /// validation in [`from_bytes`](ExplorerSnapshot::from_bytes)
    /// guarantees it).
    pub fn restore(&self, interner: &Interner) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut smap = Vec::with_capacity(self.stmts.len());
        for (head, tail) in &self.stmts {
            let tail = tail.map(|t| StmtId(smap[t as usize]));
            smap.push(interner.restore_stmt(head.clone(), tail).0);
        }
        let mut tmap: Vec<u32> = Vec::with_capacity(self.trees.len());
        for &(tag, a, b) in &self.trees {
            let id = match tag {
                0 => crate::intern::DONE,
                1 => interner.stm(StmtId(smap[a as usize])),
                2 => interner.seq(TreeId(tmap[a as usize]), TreeId(tmap[b as usize])),
                // Re-canonicalization is a no-op: the children were
                // already in structural order when the node was written.
                3 => interner.par(TreeId(tmap[a as usize]), TreeId(tmap[b as usize])),
                _ => unreachable!("validated in from_bytes"),
            };
            tmap.push(id.0);
        }
        let amap = self
            .arrays
            .iter()
            .map(|cells| interner.intern_array(cells.clone()).0)
            .collect();
        (smap, tmap, amap)
    }

    /// Reads and validates a snapshot file.
    pub fn load(path: &Path) -> Result<ExplorerSnapshot, Fx10Error> {
        let bytes = std::fs::read(path).map_err(|e| Fx10Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(ExplorerSnapshot::from_bytes(&bytes)?)
    }

    /// Writes the snapshot atomically: the bytes land in `<path>.tmp`
    /// first and are renamed over `path`, so a kill mid-write never
    /// leaves a torn file at the advertised location.
    pub fn save(&self, path: &Path) -> Result<(), Fx10Error> {
        let io_err = |e: std::io::Error| Fx10Error::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::state_key;
    use fx10_syntax::Program;

    fn fixture_with_interner() -> (Interner, ExplorerSnapshot) {
        let p = Program::parse(
            "def f() { X; } def main() { finish { async { B; } } a[0] = 1; \
             while (a[0] != 0) { a[0] = 0; } f(); K; }",
        )
        .unwrap();
        let it = Interner::new(true);
        let s = it.intern_stmt(&p.body(p.main()).clone());
        let t = it.par(it.stm(s), it.seq(it.stm(s), crate::intern::DONE));
        let a = it.intern_array(vec![0]);
        let a1 = it.intern_array(vec![1]);
        let keys = vec![
            state_key(a, t),
            state_key(a1, t),
            state_key(a, crate::intern::DONE),
        ];
        let snap = ExplorerSnapshot::capture(
            &it,
            fingerprint(&p, &[], &ExploreConfig::default()),
            2,
            true,
            7,
            keys.clone(),
            keys[..1].to_vec(),
        );
        (it, snap)
    }

    fn fixture() -> ExplorerSnapshot {
        fixture_with_interner().1
    }

    #[test]
    fn roundtrips_through_bytes() {
        let snap = fixture();
        let back = ExplorerSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn restore_rebuilds_identical_renderings() {
        let (original, snap) = fixture_with_interner();
        let snap = ExplorerSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        let fresh = Interner::new(true);
        let (_, tmap, amap) = snap.restore(&fresh);
        for &k in &snap.visited {
            let (oa, ot) = state_parts(k);
            let (na, nt) = (ArrayId(amap[oa.0 as usize]), TreeId(tmap[ot.0 as usize]));
            assert_eq!(
                fresh.render_state(na, nt),
                original.render_state(oa, ot),
                "restored state must render byte-identically"
            );
        }
    }

    #[test]
    fn dangling_references_are_rejected() {
        // Tail pointing forward.
        let mut bad = fixture();
        if let Some(first) = bad.stmts.first_mut() {
            first.1 = Some(9999);
        }
        assert!(matches!(
            ExplorerSnapshot::from_bytes(&bad.to_bytes()),
            Err(SnapshotError::Malformed(_))
        ));
        // Tree child pointing forward.
        let mut bad = fixture();
        let last = bad.trees.len() as u32;
        bad.trees.push((2, last, last));
        assert!(matches!(
            ExplorerSnapshot::from_bytes(&bad.to_bytes()),
            Err(SnapshotError::Malformed(_))
        ));
        // Visited key outside the tables.
        let mut bad = fixture();
        bad.visited.push(state_key(ArrayId(10_000), TreeId(0)));
        assert!(matches!(
            ExplorerSnapshot::from_bytes(&bad.to_bytes()),
            Err(SnapshotError::Malformed(_))
        ));
        // Frontier not a subset of visited.
        let mut bad = fixture();
        bad.frontier = vec![state_key(ArrayId(0), TreeId(1))];
        bad.visited.retain(|&k| k != bad.frontier[0]);
        assert!(matches!(
            ExplorerSnapshot::from_bytes(&bad.to_bytes()),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn fingerprint_separates_programs_inputs_and_flags() {
        let p1 = Program::parse("def main() { S1; }").unwrap();
        let p2 = Program::parse("def main() { S2; }").unwrap();
        let cfg = ExploreConfig::default();
        assert_ne!(fingerprint(&p1, &[], &cfg), fingerprint(&p2, &[], &cfg));
        let pa = Program::parse("def main() { a[0] = 1; S1; }").unwrap();
        assert_ne!(fingerprint(&pa, &[], &cfg), fingerprint(&pa, &[5], &cfg));
        let literal = ExploreConfig {
            canonical_dedup: false,
            ..cfg
        };
        assert_ne!(fingerprint(&p1, &[], &cfg), fingerprint(&p1, &[], &literal));
        // max_states is *not* part of the identity: resuming with a
        // bigger budget must be allowed.
        let bigger = ExploreConfig {
            max_states: 999,
            ..cfg
        };
        assert_eq!(fingerprint(&p1, &[], &cfg), fingerprint(&p1, &[], &bigger));
    }

    #[test]
    fn save_and_load_are_atomic_and_typed() {
        let snap = fixture();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fx10-snap-unit-{}.fxsnap", std::process::id()));
        snap.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");
        let back = ExplorerSnapshot::load(&path).unwrap();
        assert_eq!(snap, back);
        let _ = std::fs::remove_file(&path);
        // A missing file is Io, not a panic.
        assert!(matches!(
            ExplorerSnapshot::load(&path),
            Err(Fx10Error::Io { .. })
        ));
    }
}
