//! Process-level shard supervision: heartbeats, restarts, migration.
//!
//! The [`ShardSupervisor`] owns a fleet of worker *processes* connected
//! by pipes speaking the [`crate::ipc`] frame protocol. It is entirely
//! domain-agnostic: it routes dest-tagged `BATCH` frames between
//! workers, tracks liveness, restarts crashed or wedged workers with
//! decorrelated backoff, migrates a dead worker's shards (checkpoint +
//! unacked frames) to a survivor, and detects global quiescence with an
//! explicit probe round. What the frames *mean* — programs, frontier
//! batches, results — is owned by the domain layer, which supplies the
//! `INIT` bodies and interprets the reassembled result bodies.
//!
//! ## Delivery and durability contract
//!
//! Every work-bearing frame (`BATCH`, `ADOPT`) the supervisor delivers
//! is retained until the receiving worker `ACK`s its sequence number.
//! Workers ack a frame only once a durable checkpoint covering its
//! effects exists, so on restart the supervisor can redeliver every
//! unacked frame and the worker's checkpoint-resume replays the rest —
//! no state is lost to a crash between delivery and durability.
//! Redelivered frames keep their original sequence numbers; worker-side
//! dedup (the visited set restored from the checkpoint) makes
//! redelivery idempotent. Pipes are reliable, so nothing is ever
//! retransmitted within one incarnation: redelivery happens only to a
//! fresh process (restart) or a survivor (migration).
//!
//! ## Quiescence
//!
//! Termination cannot be read off local idleness alone: a frame may be
//! in flight. The supervisor counts work-bearing frames delivered per
//! worker (`sent`) and each worker reports how many it has processed
//! this incarnation. When every live worker claims to be idle and the
//! counters match, the supervisor runs a probe round: `PROBE(token)` to
//! every worker, and the round succeeds only if every `PROBE_REPLY`
//! still reports idle with matching counters and *no* `BATCH`, death or
//! restart arrives during the round. Pipes are FIFO, so any batch a
//! worker emitted before its reply is received before the reply — a
//! successful round proves no work is in flight anywhere.

use crate::backoff::{RestartPolicy, XorShift64};
use crate::ipc::{self, kind, WireMsg};
use crate::{CancelToken, Exhaustion, Fx10Error};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of a shard fleet.
#[derive(Debug, Clone)]
pub struct ShardSupervisor {
    /// Number of shards (= worker processes at launch; migration can
    /// concentrate several shards on one survivor).
    pub shards: usize,
    /// Restart budget and backoff for crashed/wedged workers.
    pub policy: RestartPolicy,
    /// A worker silent for this long is declared wedged and killed.
    pub stall_after: Duration,
    /// Event-loop poll interval (also bounds shutdown latency).
    pub poll: Duration,
    /// Wall-clock budget for the whole supervised run.
    pub deadline: Option<Duration>,
    /// Frame-length cap passed to the pipe readers.
    pub max_frame: usize,
}

impl Default for ShardSupervisor {
    fn default() -> Self {
        ShardSupervisor {
            shards: 2,
            policy: RestartPolicy::default(),
            stall_after: Duration::from_secs(10),
            poll: Duration::from_millis(20),
            deadline: None,
            max_frame: ipc::MAX_FRAME_LEN,
        }
    }
}

/// What a supervised run produced, with full provenance.
#[derive(Debug, Default)]
pub struct SupervisionReport {
    /// Per-slot result bodies (`None` for slots that died and whose
    /// shards were migrated away).
    pub results: Vec<Option<Vec<u8>>>,
    /// Human-readable supervision events, in order: restarts,
    /// migrations, quiescence.
    pub events: Vec<String>,
    /// Worker restarts performed.
    pub restarts: u32,
    /// Shard migrations performed.
    pub migrations: u32,
}

/// An event from a slot's pump thread, stamped with the process
/// incarnation it was read from (events of a dead incarnation are
/// dropped).
enum PumpEvent {
    Frame {
        slot: usize,
        incarnation: u64,
        msg: WireMsg,
    },
    Closed {
        slot: usize,
        incarnation: u64,
        error: Option<Fx10Error>,
    },
}

struct Slot {
    child: Option<Child>,
    writer: Option<Sender<Vec<u8>>>,
    incarnation: u64,
    attempt: u32,
    prev_backoff: Duration,
    alive: bool,
    last_heard: Instant,
    idle: bool,
    processed: u64,
    /// Work-bearing frames delivered this incarnation.
    sent: u64,
    /// Monotonic across incarnations, so redelivered seqs stay unique.
    next_seq: u64,
    unacked: Vec<(u64, WireMsg)>,
    owned: Vec<u32>,
    result: Option<Vec<u8>>,
    /// Reassembly buffer for a streamed result (`RESULT_PART` frames,
    /// in order; part 0 restarts the stream).
    part_buf: Vec<u8>,
    /// `(total, next expected index)` of an in-progress reassembly.
    part_state: Option<(u32, u32)>,
    ckpt: Option<PathBuf>,
}

struct Round {
    token: u64,
    awaiting: Vec<bool>,
    ok: bool,
}

/// Picks the migration target: the live slot owning the fewest shards
/// (ties to the lowest index). `None` when no slot is alive.
fn pick_survivor(slots: &[(bool, usize)]) -> Option<usize> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, (alive, _))| *alive)
        .min_by_key(|(i, (_, owned))| (*owned, *i))
        .map(|(i, _)| i)
}

struct Fleet<'a, S, I, C>
where
    S: FnMut(usize) -> Command,
    I: FnMut(usize, u32, &[u32]) -> Vec<u8>,
    C: Fn(usize) -> Option<PathBuf>,
{
    cfg: &'a ShardSupervisor,
    spawn: S,
    init_body: I,
    ckpt_path: C,
    slots: Vec<Slot>,
    /// shard id → owning slot.
    owner: Vec<usize>,
    tx: Sender<PumpEvent>,
    rng: XorShift64,
    events: Vec<String>,
    restarts: u32,
    migrations: u32,
    round: Option<Round>,
    probe_token: u64,
    finishing: bool,
}

impl<S, I, C> Fleet<'_, S, I, C>
where
    S: FnMut(usize) -> Command,
    I: FnMut(usize, u32, &[u32]) -> Vec<u8>,
    C: Fn(usize) -> Option<PathBuf>,
{
    fn note(&mut self, ev: String) {
        self.events.push(ev);
    }

    /// Spawns (or respawns) the worker process for `slot` and replays
    /// its protocol preamble: `INIT`, then every unacked frame in
    /// sequence order.
    fn spawn_slot(&mut self, slot: usize) -> Result<(), Fx10Error> {
        let mut cmd = (self.spawn)(slot);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| Fx10Error::Io {
            path: "<shard spawn>".into(),
            message: e.to_string(),
        })?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");

        let s = &mut self.slots[slot];
        s.incarnation += 1;
        let inc = s.incarnation;
        s.child = Some(child);
        s.alive = true;
        s.last_heard = Instant::now();
        s.idle = false;
        s.processed = 0;
        s.sent = s.unacked.len() as u64;
        s.result = None;
        s.part_buf = Vec::new();
        s.part_state = None;
        self.pump_pipes(slot, inc, stdin, stdout);

        // Protocol preamble: INIT, then every unacked work frame with its
        // original sequence number.
        let attempt = self.slots[slot].attempt;
        let owned = self.slots[slot].owned.clone();
        let body = (self.init_body)(slot, attempt, &owned);
        self.enqueue(slot, &WireMsg::new(kind::INIT, 0, body));
        let replay: Vec<WireMsg> = self.slots[slot]
            .unacked
            .iter()
            .map(|(_, m)| m.clone())
            .collect();
        for m in &replay {
            self.enqueue(slot, m);
        }
        Ok(())
    }

    /// Spawns the writer and pump threads for one incarnation's pipes,
    /// stamping every event with `incarnation`.
    fn pump_pipes(
        &mut self,
        slot: usize,
        incarnation: u64,
        stdin: ChildStdin,
        stdout: ChildStdout,
    ) {
        // Writer thread: owns stdin, drains a frame queue. Exits on
        // channel close (supervisor dropped it) or a broken pipe.
        let (wtx, wrx) = channel::<Vec<u8>>();
        self.slots[slot].writer = Some(wtx);
        thread::spawn(move || {
            let mut stdin = stdin;
            for frame in wrx {
                if ipc::write_frame_bytes(&mut stdin, &frame).is_err() {
                    break;
                }
            }
        });

        // Pump thread: owns stdout, forwards decoded frames as events.
        let tx = self.tx.clone();
        let max_frame = self.cfg.max_frame;
        thread::spawn(move || {
            let mut stdout = stdout;
            loop {
                let (event, last) = match ipc::read_frame(&mut stdout, max_frame) {
                    Ok(Some(msg)) => (
                        PumpEvent::Frame {
                            slot,
                            incarnation,
                            msg,
                        },
                        false,
                    ),
                    Ok(None) => (
                        PumpEvent::Closed {
                            slot,
                            incarnation,
                            error: None,
                        },
                        true,
                    ),
                    Err(e) => (
                        PumpEvent::Closed {
                            slot,
                            incarnation,
                            error: Some(e),
                        },
                        true,
                    ),
                };
                if tx.send(event).is_err() || last {
                    return;
                }
            }
        });
    }

    /// Queues a frame for the slot's writer thread. A closed queue means
    /// the worker died; the pump's `Closed` event handles that.
    fn enqueue(&mut self, slot: usize, msg: &WireMsg) {
        if let Some(w) = &self.slots[slot].writer {
            let _ = w.send(msg.frame());
        }
    }

    /// Delivers a work-bearing frame: assigns a sequence number,
    /// retains it for redelivery, counts it toward quiescence.
    fn deliver_work(&mut self, slot: usize, kind: u32, body: Vec<u8>) {
        let s = &mut self.slots[slot];
        let seq = s.next_seq;
        s.next_seq += 1;
        let msg = WireMsg::new(kind, seq, body);
        s.unacked.push((seq, msg.clone()));
        s.sent += 1;
        self.enqueue(slot, &msg);
    }

    fn reap(&mut self, slot: usize) {
        self.slots[slot].writer = None;
        if let Some(mut child) = self.slots[slot].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// A worker failed (exited, wedged, or protocol violation): restart
    /// it while the budget lasts, then migrate its shards.
    fn fail_slot(&mut self, slot: usize, why: &str) -> Result<(), Fx10Error> {
        self.round = None;
        self.finishing = false;
        self.reap(slot);
        self.slots[slot].alive = false;
        let attempt = self.slots[slot].attempt;
        if attempt < self.cfg.policy.max_restarts {
            self.slots[slot].attempt += 1;
            self.restarts += 1;
            let prev = self.slots[slot].prev_backoff;
            let pause = self.rng.backoff(
                self.cfg.policy.base_backoff,
                if prev.is_zero() {
                    self.cfg.policy.base_backoff
                } else {
                    prev
                },
                self.cfg.policy.max_backoff,
            );
            self.slots[slot].prev_backoff = pause;
            self.note(format!(
                "shard worker {slot}: {why}; restart {}/{} after {}ms backoff",
                attempt + 1,
                self.cfg.policy.max_restarts,
                pause.as_millis()
            ));
            thread::sleep(pause);
            match self.spawn_slot(slot) {
                Ok(()) => Ok(()),
                Err(e) => self.fail_slot(slot, &format!("respawn failed ({e})")),
            }
        } else {
            self.note(format!(
                "shard worker {slot}: {why}; restart budget exhausted"
            ));
            self.migrate(slot)
        }
    }

    /// Moves a dead slot's shards — checkpoint plus unacked frames — to
    /// the live slot owning the fewest shards.
    fn migrate(&mut self, dead: usize) -> Result<(), Fx10Error> {
        let occupancy: Vec<(bool, usize)> = self
            .slots
            .iter()
            .map(|s| (s.alive, s.owned.len()))
            .collect();
        let Some(survivor) = pick_survivor(&occupancy) else {
            return Err(Fx10Error::WorkerPanicked {
                worker: dead,
                message: "no live shard worker left to migrate to".into(),
            });
        };
        let moved = std::mem::take(&mut self.slots[dead].owned);
        for &sh in &moved {
            self.owner[sh as usize] = survivor;
        }
        self.slots[survivor].owned.extend(moved.iter().copied());
        let ckpt = self.slots[dead]
            .ckpt
            .as_ref()
            .and_then(|p| std::fs::read(p).ok());
        let orphaned = std::mem::take(&mut self.slots[dead].unacked);
        self.note(format!(
            "migrating shards {moved:?} from worker {dead} to worker {survivor} \
             ({} checkpoint, {} unacked frame(s))",
            if ckpt.is_some() { "with" } else { "no" },
            orphaned.len()
        ));
        self.migrations += 1;
        // ADOPT first, then the orphaned frames: FIFO delivery means the
        // survivor installs the checkpoint before replaying them, so
        // nothing is double-counted.
        self.deliver_work(
            survivor,
            kind::ADOPT,
            ipc::adopt_body(&moved, ckpt.as_deref()),
        );
        for (_, m) in orphaned {
            self.deliver_work(survivor, m.kind, m.body);
        }
        Ok(())
    }

    fn handle_frame(&mut self, slot: usize, msg: WireMsg) -> Result<(), Fx10Error> {
        self.slots[slot].last_heard = Instant::now();
        match msg.kind {
            kind::HELLO => match ipc::parse_hello_body(&msg.body) {
                Ok(ipc::PROTOCOL_VERSION) => {}
                Ok(v) => {
                    return self.fail_slot(
                        slot,
                        &format!(
                            "speaks shard protocol v{v}, this supervisor v{}",
                            ipc::PROTOCOL_VERSION
                        ),
                    )
                }
                Err(_) => return self.fail_slot(slot, "sent a malformed hello"),
            },
            kind::BATCH => {
                // Any in-flight work invalidates a quiescence round.
                self.round = None;
                match ipc::batch_dest(&msg.body) {
                    Ok(dest) if (dest as usize) < self.owner.len() => {
                        let target = self.owner[dest as usize];
                        self.deliver_work(target, kind::BATCH, msg.body);
                    }
                    _ => {
                        return self.fail_slot(slot, "sent a batch for an unknown shard");
                    }
                }
            }
            kind::ACK => match ipc::parse_ack_body(&msg.body) {
                Ok(seqs) => {
                    self.slots[slot].unacked.retain(|(s, _)| !seqs.contains(s));
                }
                Err(_) => return self.fail_slot(slot, "sent a malformed ack"),
            },
            kind::PROGRESS => match ipc::parse_progress_body(&msg.body) {
                Ok(p) => {
                    let s = &mut self.slots[slot];
                    s.processed = p.processed;
                    s.idle = p.idle;
                }
                Err(_) => return self.fail_slot(slot, "sent a malformed progress report"),
            },
            kind::PROBE_REPLY => {
                if let Ok((token, processed, idle)) = ipc::parse_probe_reply_body(&msg.body) {
                    let sent = self.slots[slot].sent;
                    if let Some(r) = &mut self.round {
                        if r.token == token && r.awaiting[slot] {
                            r.awaiting[slot] = false;
                            r.ok &= idle && processed == sent;
                            if r.awaiting.iter().all(|w| !w) {
                                let ok = r.ok;
                                self.round = None;
                                if ok {
                                    self.begin_finish();
                                }
                            }
                        }
                    }
                } else {
                    return self.fail_slot(slot, "sent a malformed probe reply");
                }
            }
            kind::RESULT_PART => match ipc::parse_result_part_body(&msg.body) {
                Ok((index, total, chunk)) => {
                    let s = &mut self.slots[slot];
                    if index == 0 {
                        // Part 0 (re)starts the stream — a re-FINISHed
                        // worker re-sends its result from the top.
                        s.part_buf = chunk.to_vec();
                        s.part_state = Some((total, 1));
                    } else if let Some((t, next)) = s.part_state {
                        if t == total && index == next {
                            s.part_buf.extend_from_slice(chunk);
                            s.part_state = Some((t, next + 1));
                        }
                        // Anything else is a tail from an abandoned stream
                        // (a re-FINISHed worker restarts at part 0).
                    }
                    let s = &mut self.slots[slot];
                    if s.part_state.is_some_and(|(t, next)| next == t) {
                        s.result = Some(std::mem::take(&mut s.part_buf));
                        s.part_state = None;
                    }
                }
                Err(_) => return self.fail_slot(slot, "sent a malformed result part"),
            },
            _ => return self.fail_slot(slot, "sent an unexpected message kind"),
        }
        Ok(())
    }

    fn begin_probe(&mut self) {
        self.probe_token += 1;
        let token = self.probe_token;
        let awaiting: Vec<bool> = self.slots.iter().map(|s| s.alive).collect();
        for slot in (0..self.slots.len()).filter(|&s| awaiting[s]) {
            self.enqueue(slot, &WireMsg::new(kind::PROBE, 0, ipc::probe_body(token)));
        }
        self.round = Some(Round {
            token,
            awaiting,
            ok: true,
        });
    }

    fn begin_finish(&mut self) {
        self.finishing = true;
        self.round = None;
        self.note("fleet quiesced; collecting results".into());
        for slot in 0..self.slots.len() {
            if self.slots[slot].alive {
                // A result from an earlier finish round is stale once a
                // failure reopened the run (a survivor may have adopted
                // work since). Pipes are FIFO and this round began after
                // every worker's probe reply, so no part of an older
                // stream can arrive after this reset.
                self.slots[slot].result = None;
                self.enqueue(slot, &WireMsg::new(kind::FINISH, 0, Vec::new()));
            }
        }
    }

    /// Graceful shutdown: close every stdin (workers exit on EOF), give
    /// them a moment, then kill stragglers.
    fn shutdown(&mut self) {
        for s in &mut self.slots {
            s.writer = None;
        }
        let grace = Instant::now();
        for i in 0..self.slots.len() {
            if let Some(child) = &mut self.slots[i].child {
                while grace.elapsed() < Duration::from_millis(500) {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) => thread::sleep(Duration::from_millis(10)),
                        Err(_) => break,
                    }
                }
            }
            self.reap(i);
        }
    }
}

impl ShardSupervisor {
    /// Runs a shard fleet to completion.
    ///
    /// - `spawn(slot)` builds the worker command line (stdio is wired by
    ///   the supervisor),
    /// - `init_body(slot, attempt, owned_shards)` encodes the
    ///   domain-level `INIT` payload for a (re)spawn,
    /// - `ckpt_path(slot)` names the worker's durable checkpoint file,
    ///   read at migration time.
    ///
    /// Returns per-slot result bodies plus full supervision
    /// provenance, or the error that ended the run (cancellation,
    /// deadline, or fleet exhaustion) — callers degrade to the next
    /// ladder rung on anything except `Cancelled`.
    pub fn run(
        &self,
        cancel: &CancelToken,
        spawn: impl FnMut(usize) -> Command,
        init_body: impl FnMut(usize, u32, &[u32]) -> Vec<u8>,
        ckpt_path: impl Fn(usize) -> Option<PathBuf>,
    ) -> Result<SupervisionReport, Fx10Error> {
        assert!(self.shards > 0, "a fleet needs at least one shard");
        let (tx, rx) = channel::<PumpEvent>();
        let now = Instant::now();
        let deadline = self.deadline.map(|d| now + d);
        let mut fleet = Fleet {
            cfg: self,
            spawn,
            init_body,
            ckpt_path,
            slots: (0..self.shards)
                .map(|i| Slot {
                    child: None,
                    writer: None,
                    incarnation: 0,
                    attempt: 0,
                    prev_backoff: Duration::ZERO,
                    alive: false,
                    last_heard: now,
                    idle: false,
                    processed: 0,
                    sent: 0,
                    next_seq: 0,
                    unacked: Vec::new(),
                    owned: vec![i as u32],
                    result: None,
                    part_buf: Vec::new(),
                    part_state: None,
                    ckpt: None,
                })
                .collect(),
            owner: (0..self.shards).collect(),
            tx,
            rng: XorShift64::new(self.policy.seed),
            events: Vec::new(),
            restarts: 0,
            migrations: 0,
            round: None,
            probe_token: 0,
            finishing: false,
        };
        for i in 0..self.shards {
            fleet.slots[i].ckpt = (fleet.ckpt_path)(i);
        }

        let finish = |mut fleet: Fleet<'_, _, _, _>, r: Result<(), Fx10Error>| {
            fleet.shutdown();
            match r {
                Ok(()) => Ok(SupervisionReport {
                    results: fleet.slots.iter_mut().map(|s| s.result.take()).collect(),
                    events: std::mem::take(&mut fleet.events),
                    restarts: fleet.restarts,
                    migrations: fleet.migrations,
                }),
                Err(e) => Err(e),
            }
        };

        for i in 0..self.shards {
            if let Err(e) = fleet.spawn_slot(i) {
                if let Err(e2) = fleet.fail_slot(i, &format!("initial spawn failed ({e})")) {
                    return finish(fleet, Err(e2));
                }
            }
        }

        loop {
            match rx.recv_timeout(self.poll) {
                Ok(PumpEvent::Frame {
                    slot,
                    incarnation,
                    msg,
                }) => {
                    if fleet.slots[slot].alive && fleet.slots[slot].incarnation == incarnation {
                        if let Err(e) = fleet.handle_frame(slot, msg) {
                            return finish(fleet, Err(e));
                        }
                    }
                }
                Ok(PumpEvent::Closed {
                    slot,
                    incarnation,
                    error,
                }) => {
                    if fleet.slots[slot].alive && fleet.slots[slot].incarnation == incarnation {
                        let why = match error {
                            Some(e) => format!("pipe failed ({e})"),
                            None => "exited".into(),
                        };
                        if let Err(e) = fleet.fail_slot(slot, &why) {
                            return finish(fleet, Err(e));
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("fleet holds a sender"),
            }

            if cancel.is_cancelled() {
                return finish(fleet, Err(Fx10Error::Cancelled));
            }
            if let Some(d) = deadline {
                if Instant::now() > d {
                    return finish(fleet, Err(Fx10Error::BudgetExhausted(Exhaustion::Deadline)));
                }
            }

            // Wedge detection: a live worker silent past the stall
            // window is killed and handled like a crash.
            for slot in 0..fleet.slots.len() {
                if fleet.slots[slot].alive
                    && fleet.slots[slot].last_heard.elapsed() > self.stall_after
                {
                    let stalled_ms = fleet.slots[slot].last_heard.elapsed().as_millis();
                    if let Err(e) =
                        fleet.fail_slot(slot, &format!("wedged (silent for {stalled_ms}ms)"))
                    {
                        return finish(fleet, Err(e));
                    }
                }
            }

            if fleet.finishing {
                let done = fleet.slots.iter().all(|s| !s.alive || s.result.is_some());
                if done {
                    return finish(fleet, Ok(()));
                }
            } else if fleet.round.is_none() {
                let quiet = fleet
                    .slots
                    .iter()
                    .all(|s| !s.alive || (s.idle && s.processed == s.sent));
                let any_alive = fleet.slots.iter().any(|s| s.alive);
                if quiet && any_alive {
                    fleet.begin_probe();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivor_is_the_least_loaded_live_slot() {
        assert_eq!(pick_survivor(&[(true, 3), (true, 1), (false, 0)]), Some(1));
        assert_eq!(pick_survivor(&[(false, 1), (false, 2)]), None);
        // Ties break to the lowest index.
        assert_eq!(pick_survivor(&[(true, 2), (true, 2)]), Some(0));
    }

    #[test]
    fn defaults_are_sane() {
        let s = ShardSupervisor::default();
        assert!(s.shards >= 1);
        assert!(s.stall_after > s.poll);
        assert_eq!(s.max_frame, ipc::MAX_FRAME_LEN);
    }
}
