//! The flow-sensitive abstract interpreter.
//!
//! Computes, for every labeled program point `l`, an abstract environment
//! `Env[l] : cell → AbsVal` over-approximating every concrete array state
//! `A` observable while `l` is a *front* label (`l ∈ FTlabels(T)` for some
//! reachable state `(p, A, T)`). A label whose environment stays `⊥` is
//! **abstractly unreachable** — the feasibility fact the MHP pruning
//! oracle and the lint suite consume.
//!
//! # Handling `∥`
//!
//! Sequential flow alone is unsound under async-finish parallelism: a
//! write running in parallel with `l` can land between any two of `l`'s
//! observations. The interpreter therefore keeps, per assignment label
//! `w`, the join `wval[w]` of every abstract value that assignment ever
//! stores, and *interferes* each environment:
//!
//! ```text
//! Env[l](d) ⊒ ⊔ { wval[w] | w writes d, (w, l) ∈ MHP }
//! ```
//!
//! using the **static CS may-happen-in-parallel relation** as the
//! parallelism oracle. The static relation over-approximates the dynamic
//! one (Theorem 2), and every ordering it *does* rule out is enforced by
//! `finish`/`▷` sequencing — which ordinary flow transfer covers — so the
//! combination is sound. The workspace differential gate
//! ([`crate::gate`]) checks exactly this containment on every fixture.
//!
//! # Fixpoint structure
//!
//! Global chaotic iteration over method summaries (`in`/`out` per method,
//! context-insensitive) and the `wval` table, all monotone accumulators,
//! widened after [`GLOBAL_WIDEN_DELAY`] rounds so interference feedback
//! between parallel loops terminates. `while` loops run a local ascending
//! fixpoint (widening after [`LOCAL_WIDEN_DELAY`] iterations) followed by
//! one descending (narrowing) step. Once a round changes nothing, one
//! final *recording* pass over the now-stable tables produces the
//! published environments; a round cap degrades to the sound all-`⊤`
//! answer with [`Absint::capped`] set.

use crate::domain::{AbsVal, Domain};
use fx10_core::PairSet;
use fx10_syntax::{Expr, Instr, InstrKind, Label, Program, Stmt};

/// Rounds of global iteration before the accumulators are widened.
const GLOBAL_WIDEN_DELAY: usize = 4;
/// Iterations of a local `while` fixpoint before widening kicks in.
const LOCAL_WIDEN_DELAY: usize = 2;

/// Configuration for [`Absint::analyze`].
#[derive(Debug, Clone)]
pub struct AbsintConfig {
    /// The value domain to run in.
    pub domain: Domain,
    /// The initial array, abstracted exactly (padded with zeros like the
    /// concrete semantics); `None` analyzes all inputs at once (`⊤`).
    pub input: Option<Vec<i64>>,
    /// Cap on global fixpoint rounds; hitting it yields the sound all-`⊤`
    /// fallback with [`Absint::capped`] set.
    pub max_rounds: usize,
}

impl AbsintConfig {
    /// The given domain, `⊤` input, default round cap.
    pub fn top(domain: Domain) -> Self {
        AbsintConfig {
            domain,
            input: None,
            max_rounds: 64,
        }
    }

    /// The given domain and exact initial array.
    pub fn with_input(domain: Domain, input: &[i64]) -> Self {
        AbsintConfig {
            domain,
            input: Some(input.to_vec()),
            max_rounds: 64,
        }
    }
}

/// The result of one abstract interpretation run. See the module docs for
/// the invariant each accessor exposes.
#[derive(Debug, Clone)]
pub struct Absint {
    domain: Domain,
    width: usize,
    envs: Vec<Option<Vec<AbsVal>>>,
    reasons: Vec<Option<String>>,
    divergent: Vec<(Label, usize, AbsVal)>,
    loop_heads: Vec<Option<(usize, AbsVal)>>,
    enclosing: Vec<Option<Label>>,
    rounds: usize,
    capped: bool,
}

impl Absint {
    /// Runs the interpreter to fixpoint. `mhp` is the static (CS)
    /// may-happen-in-parallel relation used as the interference oracle —
    /// pass `Analysis::mhp()`.
    pub fn analyze(p: &Program, mhp: &PairSet, cfg: &AbsintConfig) -> Absint {
        let n = p.label_count();
        let width = p.array_len().max(cfg.input.as_ref().map_or(0, |i| i.len()));
        let init: Vec<AbsVal> = match &cfg.input {
            Some(input) => (0..width)
                .map(|d| AbsVal::of(cfg.domain, input.get(d).copied().unwrap_or(0)))
                .collect(),
            None => vec![AbsVal::Top; width],
        };

        // Innermost enclosing `while` per label, for guard-fact hints.
        let mut enclosing: Vec<Option<Label>> = vec![None; n];
        fn walk_enclosing(s: &Stmt, stack: &mut Vec<Label>, out: &mut Vec<Option<Label>>) {
            for i in s.instrs() {
                out[i.label.index()] = stack.last().copied();
                match &i.kind {
                    InstrKind::While { body, .. } => {
                        stack.push(i.label);
                        walk_enclosing(body, stack, out);
                        stack.pop();
                    }
                    InstrKind::Async { body } | InstrKind::Finish { body } => {
                        walk_enclosing(body, stack, out)
                    }
                    _ => {}
                }
            }
        }
        for m in p.methods() {
            walk_enclosing(m.body(), &mut Vec::new(), &mut enclosing);
        }

        let mut writers: Vec<(Label, usize)> = Vec::new();
        p.for_each_instr(|_, i| {
            if let InstrKind::Assign { idx, .. } = i.kind {
                writers.push((i.label, idx));
            }
        });

        let pending = pending_writes_by_finish(p);

        let mut eng = Engine {
            p,
            d: cfg.domain,
            mhp,
            writers,
            pending,
            wval: vec![AbsVal::Bot; n],
            m_in: vec![None; p.method_count()],
            m_out: vec![None; p.method_count()],
            envs: vec![None; n],
            reasons: vec![None; n],
            divergent: Vec::new(),
            loop_heads: vec![None; n],
            record: false,
            widen_accum: false,
            changed: false,
            kill: None,
        };
        eng.m_in[p.main().index()] = Some(init);

        let mut rounds = 0usize;
        let mut capped = true;
        while rounds < cfg.max_rounds {
            rounds += 1;
            eng.widen_accum = rounds >= GLOBAL_WIDEN_DELAY;
            eng.record = false;
            eng.run_round();
            if eng.changed {
                continue;
            }
            // Stable: one recording pass over the stable tables. It
            // re-executes the same transfer functions, so it cannot move
            // the accumulators; the re-check is defensive.
            rounds += 1;
            eng.record = true;
            eng.clear_record();
            eng.run_round();
            if !eng.changed {
                capped = false;
                break;
            }
            eng.clear_record();
        }

        if capped {
            // Sound fallback: every label reachable with unknown values.
            return Absint {
                domain: cfg.domain,
                width,
                envs: vec![Some(vec![AbsVal::Top; width]); n],
                reasons: vec![None; n],
                divergent: Vec::new(),
                loop_heads: vec![None; n],
                enclosing,
                rounds,
                capped: true,
            };
        }

        // Labels of never-called methods get a specific reason.
        for (f, m) in p.methods().iter().enumerate() {
            if eng.m_in[f].is_none() {
                let reason = format!("method `{}` is never called", m.name());
                mark_stmt(m.body(), &mut |l| {
                    if eng.envs[l.index()].is_none() && eng.reasons[l.index()].is_none() {
                        eng.reasons[l.index()] = Some(reason.clone());
                    }
                });
            }
        }

        let mut divergent = eng.divergent;
        divergent.sort_by_key(|&(l, _, _)| l);
        divergent.dedup();
        Absint {
            domain: cfg.domain,
            width,
            envs: eng.envs,
            reasons: eng.reasons,
            divergent,
            loop_heads: eng.loop_heads,
            enclosing,
            rounds,
            capped: false,
        }
    }

    /// The domain this run used.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Number of array cells tracked (the runtime width, extended to the
    /// input when the input is longer).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Global fixpoint rounds taken (including the recording pass).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// True when the round cap forced the all-`⊤` fallback. The result is
    /// still sound but proves nothing; feasibility clients must not prune.
    pub fn capped(&self) -> bool {
        self.capped
    }

    /// True when `l` is abstractly reachable (its environment is not `⊥`).
    /// Unreachability is definite: no concrete execution from the analyzed
    /// input(s) ever fronts `l`.
    pub fn reachable(&self, l: Label) -> bool {
        self.envs[l.index()].is_some()
    }

    /// Number of abstractly reachable labels.
    pub fn reachable_count(&self) -> usize {
        self.envs.iter().filter(|e| e.is_some()).count()
    }

    /// The abstract environment at `l`, `None` when unreachable.
    pub fn env(&self, l: Label) -> Option<&[AbsVal]> {
        self.envs[l.index()].as_deref()
    }

    /// Differential-gate check: may the concrete array `cells` be observed
    /// while `l` is a front label? Soundness demands `true` for every
    /// sample the explorer produces.
    pub fn admits(&self, l: Label, cells: &[i64]) -> bool {
        match self.env(l) {
            None => false,
            Some(env) => {
                env.len() == cells.len() && env.iter().zip(cells).all(|(a, &v)| a.contains(v))
            }
        }
    }

    /// Why `l` is unreachable (`None` when it is reachable).
    pub fn reason(&self, l: Label) -> Option<String> {
        if self.reachable(l) {
            return None;
        }
        Some(match &self.reasons[l.index()] {
            Some(r) => r.clone(),
            None => format!("unreachable ({} domain)", self.domain),
        })
    }

    /// Loops whose exit is abstractly unreachable: `(label, guard cell,
    /// head guard value)`. Reaching such a loop diverges — under *every*
    /// input when the run was `⊤`-initial, else under the analyzed input.
    pub fn divergent_loops(&self) -> &[(Label, usize, AbsVal)] {
        &self.divergent
    }

    /// A one-line abstract fact about `l`, for lint fix hints: either the
    /// unreachability reason, or the innermost enclosing guard's value, or
    /// the local environment.
    pub fn guard_fact(&self, l: Label, p: &Program) -> String {
        if let Some(r) = self.reason(l) {
            return r;
        }
        if let Some(w) = self.enclosing[l.index()] {
            if let Some((idx, v)) = self.loop_heads[w.index()] {
                return format!(
                    "enclosing guard a[{idx}] is {v} at {} ({} domain)",
                    p.labels().display(w),
                    self.domain
                );
            }
        }
        let env = self.env(l).expect("reachable label has an environment");
        let cells: Vec<String> = env.iter().map(|v| v.to_string()).collect();
        format!(
            "reachable with a = [{}] ({} domain)",
            cells.join(", "),
            self.domain
        )
    }
}

/// For every `finish` label, the assignments that may still be running
/// when the barrier releases: writes nested under an `async` the finish
/// awaits — directly in its body, inside methods called from such an
/// async (everything a pending async does is pending), or spawned by a
/// method the body calls sequentially. Writes inside a *nested* finish
/// settle at that inner barrier and are excluded.
fn pending_writes_by_finish(p: &Program) -> Vec<Vec<(Label, usize)>> {
    use std::collections::BTreeSet;
    type Set = BTreeSet<(Label, usize)>;

    fn assigns_under(s: &Stmt, out: &mut Set) {
        for i in s.instrs() {
            if let InstrKind::Assign { idx, .. } = i.kind {
                out.insert((i.label, idx));
            }
            if let Some(b) = i.kind.body() {
                assigns_under(b, out);
            }
        }
    }
    fn calls_under(s: &Stmt, out: &mut BTreeSet<usize>) {
        for i in s.instrs() {
            if let InstrKind::Call { callee } = i.kind {
                out.insert(callee.index());
            }
            if let Some(b) = i.kind.body() {
                calls_under(b, out);
            }
        }
    }

    let nm = p.method_count();
    // allw[f]: every write f may perform, transitively through calls.
    let mut allw: Vec<Set> = vec![Set::new(); nm];
    loop {
        let mut changed = false;
        for f in 0..nm {
            let mut next = Set::new();
            assigns_under(p.methods()[f].body(), &mut next);
            let mut calls = BTreeSet::new();
            calls_under(p.methods()[f].body(), &mut calls);
            for g in calls {
                next.extend(allw[g].iter().copied());
            }
            if next != allw[f] {
                allw[f] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // The pending contribution of a statement: writes under its asyncs
    // (with their calls fully expanded), plus what its sequential calls
    // spawn, skipping nested finish bodies (their asyncs are settled).
    fn pending_of(s: &Stmt, allw: &[Set], aw: &[Set], out: &mut Set) {
        for i in s.instrs() {
            match &i.kind {
                InstrKind::Async { body } => {
                    assigns_under(body, out);
                    let mut calls = BTreeSet::new();
                    calls_under(body, &mut calls);
                    for g in calls {
                        out.extend(allw[g].iter().copied());
                    }
                }
                InstrKind::Call { callee } => out.extend(aw[callee.index()].iter().copied()),
                InstrKind::While { body, .. } => pending_of(body, allw, aw, out),
                InstrKind::Finish { .. } | InstrKind::Skip | InstrKind::Assign { .. } => {}
            }
        }
    }

    // aw[f]: writes a call to f may leave in flight after it returns.
    let mut aw: Vec<Set> = vec![Set::new(); nm];
    loop {
        let mut changed = false;
        for f in 0..nm {
            let mut next = Set::new();
            pending_of(p.methods()[f].body(), &allw, &aw, &mut next);
            if next != aw[f] {
                aw[f] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut pending: Vec<Vec<(Label, usize)>> = vec![Vec::new(); p.label_count()];
    fn visit(s: &Stmt, allw: &[Set], aw: &[Set], pending: &mut Vec<Vec<(Label, usize)>>) {
        for i in s.instrs() {
            if let InstrKind::Finish { body } = &i.kind {
                let mut set = Set::new();
                pending_of(body, allw, aw, &mut set);
                pending[i.label.index()] = set.into_iter().collect();
            }
            if let Some(b) = i.kind.body() {
                visit(b, allw, aw, pending);
            }
        }
    }
    for m in p.methods() {
        visit(m.body(), &allw, &aw, &mut pending);
    }
    pending
}

/// Applies `f` to every label of `s`, bodies included.
fn mark_stmt(s: &Stmt, f: &mut impl FnMut(Label)) {
    for i in s.instrs() {
        f(i.label);
        if let Some(b) = i.kind.body() {
            mark_stmt(b, f);
        }
    }
}

struct Engine<'a> {
    p: &'a Program,
    d: Domain,
    mhp: &'a PairSet,
    /// Every assignment in the program: `(label, written cell)`.
    writers: Vec<(Label, usize)>,
    /// Per `finish` label: the assignments that may still be in flight
    /// when the barrier releases (writes under asyncs the finish awaits).
    pending: Vec<Vec<(Label, usize)>>,
    /// Join of every value each assignment ever stores.
    wval: Vec<AbsVal>,
    m_in: Vec<Option<Vec<AbsVal>>>,
    m_out: Vec<Option<Vec<AbsVal>>>,
    envs: Vec<Option<Vec<AbsVal>>>,
    reasons: Vec<Option<String>>,
    divergent: Vec<(Label, usize, AbsVal)>,
    loop_heads: Vec<Option<(usize, AbsVal)>>,
    record: bool,
    widen_accum: bool,
    changed: bool,
    /// Why flow most recently died, for dead-label reasons.
    kill: Option<String>,
}

impl Engine<'_> {
    fn clear_record(&mut self) {
        self.envs.iter_mut().for_each(|e| *e = None);
        self.reasons.iter_mut().for_each(|r| *r = None);
        self.loop_heads.iter_mut().for_each(|h| *h = None);
        self.divergent.clear();
    }

    fn run_round(&mut self) {
        self.changed = false;
        for f in 0..self.p.method_count() {
            let Some(entry) = self.m_in[f].clone() else {
                continue;
            };
            self.kill = None;
            let body = self.p.body(fx10_syntax::FuncId(f as u32)).clone();
            if let Some(out) = self.exec_stmt(&body, Some(entry)) {
                self.accum_method_out(f, &out);
            }
        }
    }

    /// Accumulator join (with global widening past the delay), returning
    /// nothing but flagging `changed`.
    fn accum_val(&mut self, old: AbsVal, v: AbsVal) -> AbsVal {
        let mut new = old.join(v, self.d);
        if self.widen_accum {
            new = old.widen(new, self.d);
        }
        if new != old {
            self.changed = true;
        }
        new
    }

    fn accum_wval(&mut self, w: Label, v: AbsVal) {
        let old = self.wval[w.index()];
        self.wval[w.index()] = self.accum_val(old, v);
    }

    fn accum_method_in(&mut self, f: usize, st: &[AbsVal]) {
        match self.m_in[f].take() {
            None => {
                self.m_in[f] = Some(st.to_vec());
                self.changed = true;
            }
            Some(mut cur) => {
                for (c, &v) in cur.iter_mut().zip(st) {
                    *c = self.accum_val(*c, v);
                }
                self.m_in[f] = Some(cur);
            }
        }
    }

    fn accum_method_out(&mut self, f: usize, st: &[AbsVal]) {
        match self.m_out[f].take() {
            None => {
                self.m_out[f] = Some(st.to_vec());
                self.changed = true;
            }
            Some(mut cur) => {
                for (c, &v) in cur.iter_mut().zip(st) {
                    *c = self.accum_val(*c, v);
                }
                self.m_out[f] = Some(cur);
            }
        }
    }

    /// `st ⊔ interference(l)`: weak-updates every cell some parallel
    /// assignment may race into.
    fn interfere(&self, l: Label, mut st: Vec<AbsVal>) -> Vec<AbsVal> {
        for &(w, cell) in &self.writers {
            let v = self.wval[w.index()];
            if v != AbsVal::Bot && self.mhp.contains(w, l) {
                st[cell] = st[cell].join(v, self.d);
            }
        }
        st
    }

    fn eval(&self, e: &Expr, st: &[AbsVal]) -> AbsVal {
        match e {
            Expr::Const(c) => AbsVal::of(self.d, *c),
            Expr::Plus1(d) => st[*d].plus1(),
        }
    }

    fn record_env(&mut self, l: Label, st: &[AbsVal]) {
        match self.envs[l.index()].take() {
            None => self.envs[l.index()] = Some(st.to_vec()),
            Some(mut cur) => {
                for (c, &v) in cur.iter_mut().zip(st) {
                    *c = c.join(v, self.d);
                }
                self.envs[l.index()] = Some(cur);
            }
        }
    }

    /// Marks `i` (and its body) dead with the current kill reason.
    fn mark_dead(&mut self, i: &Instr) {
        let reason = self.kill.clone();
        mark_stmt(
            &Stmt::new(vec![i.clone()]).expect("singleton statement"),
            &mut |l| {
                if self.envs[l.index()].is_none() && self.reasons[l.index()].is_none() {
                    self.reasons[l.index()] = reason.clone();
                }
            },
        );
    }

    fn exec_stmt(&mut self, s: &Stmt, mut st: Option<Vec<AbsVal>>) -> Option<Vec<AbsVal>> {
        for i in s.instrs() {
            match st.take() {
                Some(live) => st = self.exec_instr(i, live),
                None => {
                    if self.record {
                        self.mark_dead(i);
                    }
                }
            }
        }
        st
    }

    fn exec_instr(&mut self, i: &Instr, st: Vec<AbsVal>) -> Option<Vec<AbsVal>> {
        let l = i.label;
        let st_at = self.interfere(l, st);
        if self.record && !matches!(i.kind, InstrKind::While { .. }) {
            self.record_env(l, &st_at);
        }
        match &i.kind {
            InstrKind::Skip => Some(st_at),
            InstrKind::Assign { idx, expr } => {
                let v = self.eval(expr, &st_at);
                self.accum_wval(l, v);
                let mut out = st_at;
                out[*idx] = v;
                Some(out)
            }
            InstrKind::Call { callee } => {
                self.accum_method_in(callee.index(), &st_at);
                match self.m_out[callee.index()].clone() {
                    Some(out) => Some(out),
                    None => {
                        self.kill = Some(format!(
                            "the call at {} never returns: `{}` does not complete",
                            self.p.labels().display(l),
                            self.p.method(*callee).name()
                        ));
                        None
                    }
                }
            }
            InstrKind::Async { body } => {
                // The continuation proceeds independently of the body;
                // the body's effects reach continuation labels through
                // interference (every body write is statically MHP with
                // them) and settle at the enclosing `finish` exit via the
                // pending-writes join below.
                let _ = self.exec_stmt(body, Some(st_at.clone()));
                Some(st_at)
            }
            InstrKind::Finish { body } => match self.exec_stmt(body, Some(st_at)) {
                Some(mut out) => {
                    // A write under an async awaited by this finish may
                    // land *after* every sequential strong update in the
                    // body — its value can persist past the barrier, so
                    // the exit state must re-admit it.
                    for k in 0..self.pending[l.index()].len() {
                        let (w, cell) = self.pending[l.index()][k];
                        let v = self.wval[w.index()];
                        if v != AbsVal::Bot {
                            out[cell] = out[cell].join(v, self.d);
                        }
                    }
                    Some(out)
                }
                None => {
                    self.kill = Some(format!(
                        "code after `finish` at {} is unreachable: its body never completes",
                        self.p.labels().display(l)
                    ));
                    None
                }
            },
            InstrKind::While { idx, body } => self.exec_while(l, *idx, body, st_at),
        }
    }

    fn exec_while(
        &mut self,
        l: Label,
        idx: usize,
        body: &Stmt,
        entry: Vec<AbsVal>,
    ) -> Option<Vec<AbsVal>> {
        // Ascending fixpoint with widening; recording suppressed so only
        // the final invariant lands in the environments.
        let saved = std::mem::replace(&mut self.record, false);
        let mut acc = entry.clone();
        let mut iter = 0usize;
        loop {
            let head = self.interfere(l, acc.clone());
            let guard = head[idx].refine_nonzero();
            let body_out = if guard == AbsVal::Bot {
                None
            } else {
                let mut bin = head.clone();
                bin[idx] = guard;
                self.exec_stmt(body, Some(bin))
            };
            let grown = match &body_out {
                Some(b) => join_states(acc.clone(), b, self.d),
                None => acc.clone(),
            };
            if grown == acc {
                break;
            }
            acc = if iter >= LOCAL_WIDEN_DELAY {
                widen_states(&acc, &grown, self.d)
            } else {
                grown
            };
            iter += 1;
        }
        // One descending (narrowing) step: `F(acc) ⊑ acc` at a stable
        // `acc`, and `F(acc)` is itself a post-fixpoint by monotonicity.
        {
            let head = self.interfere(l, acc.clone());
            let guard = head[idx].refine_nonzero();
            let body_out = if guard == AbsVal::Bot {
                None
            } else {
                let mut bin = head.clone();
                bin[idx] = guard;
                self.exec_stmt(body, Some(bin))
            };
            acc = match &body_out {
                Some(b) => join_states(entry.clone(), b, self.d),
                None => entry,
            };
        }
        self.record = saved;

        let head = self.interfere(l, acc);
        let guard = head[idx].refine_nonzero();
        if self.record {
            self.record_env(l, &head);
            self.loop_heads[l.index()] = Some((idx, head[idx]));
            if guard == AbsVal::Bot {
                self.kill = Some(format!(
                    "the body of the loop at {} is unreachable: guard a[{idx}] is always 0",
                    self.p.labels().display(l)
                ));
                let kill = self.kill.clone();
                mark_stmt(body, &mut |bl| {
                    if self.envs[bl.index()].is_none() && self.reasons[bl.index()].is_none() {
                        self.reasons[bl.index()] = kill.clone();
                    }
                });
            } else {
                // Record the body under the final invariant.
                let mut bin = head.clone();
                bin[idx] = guard;
                let _ = self.exec_stmt(body, Some(bin));
            }
        }
        let exitv = head[idx].refine_zero(self.d);
        if exitv == AbsVal::Bot {
            if self.record {
                self.divergent.push((l, idx, head[idx]));
            }
            self.kill = Some(format!(
                "code after the loop at {} is unreachable: guard a[{idx}] is {} and never 0",
                self.p.labels().display(l),
                head[idx]
            ));
            None
        } else {
            let mut out = head;
            out[idx] = exitv;
            Some(out)
        }
    }
}

fn join_states(mut a: Vec<AbsVal>, b: &[AbsVal], d: Domain) -> Vec<AbsVal> {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = x.join(y, d);
    }
    a
}

fn widen_states(a: &[AbsVal], b: &[AbsVal], d: Domain) -> Vec<AbsVal> {
    a.iter().zip(b).map(|(&x, &y)| x.widen(y, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx10_core::analyze;

    fn run(src: &str, domain: Domain, input: Option<&[i64]>) -> (Program, Absint) {
        let p = Program::parse(src).expect("parse");
        let a = analyze(&p);
        let cfg = match input {
            Some(i) => AbsintConfig::with_input(domain, i),
            None => AbsintConfig::top(domain),
        };
        let r = Absint::analyze(&p, a.mhp(), &cfg);
        (p, r)
    }

    #[test]
    fn straight_line_constants_are_exact() {
        let src = "def main() { W1: a[0] = 3; W2: a[1] = a[0] + 1; S: skip; }";
        let (p, r) = run(src, Domain::Const, Some(&[0, 0]));
        assert!(!r.capped());
        let s = p.labels().lookup("S").unwrap();
        assert_eq!(r.env(s).unwrap(), &[AbsVal::Const(3), AbsVal::Const(4)]);
    }

    #[test]
    fn loop_counter_widens_to_interval() {
        let src = "def main() { a[0] = 1; while (a[0] != 0) { W: a[1] = a[1] + 1; } S: skip; }";
        let (p, r) = run(src, Domain::Interval, Some(&[0, 0]));
        let w = p.labels().lookup("W").unwrap();
        // Inside the body the counter has been 0, 1, 2, ... — widened above.
        assert!(r.reachable(w));
        let env = r.env(w).unwrap();
        assert_eq!(env[1], AbsVal::Range(Some(0), None));
        // The guard cell is the constant 1 inside the loop (never written).
        assert_eq!(env[0], AbsVal::Range(Some(1), Some(1)));
        // The loop never exits: S is unreachable and the loop is divergent.
        let s = p.labels().lookup("S").unwrap();
        assert!(!r.reachable(s));
        assert_eq!(r.divergent_loops().len(), 1);
        assert!(r.reason(s).unwrap().contains("never 0"));
    }

    #[test]
    fn terminating_countdown_reaches_exit_with_zero_guard() {
        // a[0] starts unknown; the loop zeroes it explicitly.
        let src = "def main() { while (a[0] != 0) { a[0] = 0; } S: skip; }";
        let (p, r) = run(src, Domain::Interval, None);
        let s = p.labels().lookup("S").unwrap();
        assert!(r.reachable(s));
        assert_eq!(r.env(s).unwrap()[0], AbsVal::Range(Some(0), Some(0)));
    }

    #[test]
    fn parity_proves_odd_guard_divergence_for_all_inputs() {
        // Guard cell is odd forever: starts at 1, body adds 2.
        let src = "def main() { a[0] = 1; L: while (a[0] != 0) { a[0] = a[0] + 1; a[0] = a[0] + 1; } S: skip; }";
        let (p, r) = run(src, Domain::Parity, None);
        let s = p.labels().lookup("S").unwrap();
        assert!(!r.reachable(s), "parity proves the guard never hits 0");
        let l = p.labels().lookup("L").unwrap();
        assert_eq!(r.divergent_loops(), &[(l, 0, AbsVal::Odd)]);
    }

    #[test]
    fn parallel_write_interferes_with_reader_env() {
        // The async write of 7 races with the continuation: S must admit
        // both the initial 0 and the raced 7.
        let src = "def main() { async { W: a[0] = 7; } S: skip; }";
        let (p, r) = run(src, Domain::Const, Some(&[0]));
        let s = p.labels().lookup("S").unwrap();
        assert!(r.admits(s, &[0]));
        assert!(r.admits(s, &[7]));
        let env = r.env(s).unwrap();
        assert_eq!(env[0], AbsVal::Top);
    }

    #[test]
    fn finish_exit_covers_async_writes() {
        // The async completes before S, so concretely a[0] is exactly 7
        // there; the abstraction keeps the pre-write value too (the
        // pending-writes join is a may-persist rule, not a must) — what
        // matters is that 7 is admitted.
        let src = "def main() { finish { async { a[0] = 7; } } S: skip; }";
        let (p, r) = run(src, Domain::Const, Some(&[0]));
        let s = p.labels().lookup("S").unwrap();
        assert!(r.admits(s, &[7]));
        assert_eq!(r.env(s).unwrap()[0], AbsVal::Top);
    }

    #[test]
    fn racing_async_write_persists_past_sequential_update() {
        // W1 may run *after* W2 inside the finish, so at S the cell may
        // be 2 (W2 wrote 1, then W1 incremented it). The finish exit
        // must admit that even though sequential flow ends at W2.
        let src = "def main() { finish { async { W1: a[0] = a[0] + 1; } W2: a[0] = a[1] + 1; } S: skip; }";
        let (p, r) = run(src, Domain::Const, Some(&[0, 0]));
        let s = p.labels().lookup("S").unwrap();
        assert!(r.admits(s, &[2, 0]));
        assert!(r.admits(s, &[1, 0]));
    }

    #[test]
    fn dead_method_labels_carry_a_reason() {
        let src = "def main() { skip; } def ghost() { G: a[0] = 1; }";
        let (p, r) = run(src, Domain::Const, Some(&[0]));
        let g = p.labels().lookup("G").unwrap();
        assert!(!r.reachable(g));
        assert_eq!(r.reason(g).unwrap(), "method `ghost` is never called");
    }

    #[test]
    fn call_flows_through_method_summary() {
        let src = "def main() { f(); S: skip; } def f() { a[0] = 5; }";
        let (p, r) = run(src, Domain::Const, Some(&[0]));
        let s = p.labels().lookup("S").unwrap();
        assert_eq!(r.env(s).unwrap()[0], AbsVal::Const(5));
    }

    #[test]
    fn guard_fact_cites_enclosing_guard() {
        let src = "def main() { a[0] = 1; L: while (a[0] != 0) { B: a[1] = 2; } }";
        let (p, r) = run(src, Domain::Const, Some(&[0, 0]));
        let b = p.labels().lookup("B").unwrap();
        let fact = r.guard_fact(b, &p);
        assert!(fact.contains("enclosing guard a[0]"), "{fact}");
        assert!(fact.contains("at L"), "{fact}");
    }

    #[test]
    fn top_input_runs_are_sound_for_any_start() {
        let src = "def main() { while (a[0] != 0) { a[1] = a[1] + 1; } S: skip; }";
        for d in Domain::ALL {
            let (p, r) = run(src, d, None);
            let s = p.labels().lookup("S").unwrap();
            // With unknown input the loop may be skipped entirely.
            assert!(r.reachable(s), "domain {d}");
        }
    }

    #[test]
    fn recursion_terminates_via_summaries() {
        let src = "def main() { f(); S: skip; } def f() { while (a[0] != 0) { a[0] = 0; f(); } }";
        let (p, r) = run(src, Domain::Interval, None);
        assert!(!r.capped());
        let s = p.labels().lookup("S").unwrap();
        assert!(r.reachable(s));
    }

    #[test]
    fn interference_feedback_between_parallel_loops_terminates() {
        // Two parallel unbounded counters feeding each other's cells.
        let src = "def main() { a[0] = 1; a[1] = 1; async { while (a[0] != 0) { a[2] = a[3] + 1; } } while (a[1] != 0) { a[3] = a[2] + 1; } }";
        for d in Domain::ALL {
            let (_p, r) = run(src, d, Some(&[0, 0, 0, 0]));
            assert!(!r.capped(), "domain {d} hit the round cap");
        }
    }
}
