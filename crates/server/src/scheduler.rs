//! The admission scheduler: which queued query a free worker runs next.
//!
//! Every submission carries a [`JobMeta`] — its session, a scheduling
//! [`Lane`] (from cost classification or an explicit override), the
//! cheap cost estimate's projected blocks, and an optional deadline.
//! [`Scheduler`] is one queue: [`LANE_COUNT`] deficit-round-robin (DRR)
//! queues served in strict priority order, queue 0 first. Within a
//! queue, each rotation grants a session `quantum × session weight`
//! cost-blocks of credit, and a job runs when its projected cost fits
//! the credit, so a session flooding expensive scans gets
//! proportionally fewer turns than sessions running cheap work.
//!
//! The [`SchedPolicy`] only decides the `(queue, session)` slot a job
//! waits in:
//!
//! * `Fifo` → `(0, 0)`: one queue with one session, which DRR serves in
//!   arrival order. The capacity bounds the whole queue. Lanes are
//!   recorded for the gauges but ignored for ordering.
//! * `Lanes` → `(lane, 0)`: strict priority (interactive > batch >
//!   maintenance), arrival order within a lane, and the capacity bounds
//!   each lane, so a batch storm backpressures batch producers only.
//! * `Fair` → `(lane, session)`: the same lanes, shared across sessions
//!   by DRR inside each lane. A session weight
//!   (`SubmitOptions::weight`) scales the per-rotation top-up.
//!
//! Two rules act on queues 1 and 2 only, so they never fire under
//! `Fifo`: deadline promotion (a job that has burned half its deadline
//! waiting is served next, ahead of queue order) and the maintenance
//! starvation cap ([`MAINT_STARVATION_CAP`]).
//!
//! The scheduler is a plain data structure (no locks, no waiting); the
//! blocking machinery lives in [`crate::queue::SchedQueue`]. Every
//! policy preserves per-session submission order within a lane, and
//! none can change a query's *result* — scheduling reorders work,
//! nothing else.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use adaptdb::cost::{Lane, LANES, LANE_COUNT};
use adaptdb::SchedPolicy;

/// Scheduling metadata carried by every submission.
#[derive(Debug, Clone)]
pub struct JobMeta {
    /// Submitting session (0 = the server's one-off `run`).
    pub session: u64,
    /// Admission lane (cost classification or explicit override).
    pub lane: Lane,
    /// Projected candidate blocks from the cheap cost estimate — the
    /// fair-share scheduling weight (clamped to ≥ 1).
    pub cost_blocks: usize,
    /// Optional latency deadline. A job waiting in queue 1 or 2 is
    /// promoted ahead of queue order once half the deadline has elapsed.
    pub deadline: Option<Duration>,
    /// Session scheduling weight under [`SchedPolicy::Fair`]: the
    /// per-rotation DRR top-up is `quantum × session_weight`, so a
    /// weight-2 session is granted twice the cost-blocks per rotation.
    /// Clamped to [0.1, 16]; 1.0 (the default) reproduces unweighted
    /// DRR exactly.
    pub session_weight: f64,
    /// When the client submitted.
    pub submitted: Instant,
    /// Set by the scheduler when the job was served via deadline
    /// promotion rather than queue order.
    pub promoted: bool,
}

impl JobMeta {
    /// Metadata for a fresh submission (submitted = now).
    pub fn new(session: u64, lane: Lane, cost_blocks: usize, deadline: Option<Duration>) -> Self {
        JobMeta {
            session,
            lane,
            cost_blocks,
            deadline,
            session_weight: 1.0,
            submitted: Instant::now(),
            promoted: false,
        }
    }

    /// Set the session scheduling weight (clamped to [0.1, 16] so a
    /// typo can neither zero a session out nor let it monopolize).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.session_weight = if weight.is_finite() { weight.clamp(0.1, 16.0) } else { 1.0 };
        self
    }

    /// DRR weight: projected blocks, at least 1 so zero-cost estimates
    /// (unknown tables, empty scans) still consume a turn.
    fn weight(&self) -> f64 {
        self.cost_blocks.max(1) as f64
    }

    /// True once the job has burned half its deadline waiting — the
    /// promotion trigger (promoting *at* the deadline would already be
    /// too late to meet it).
    fn urgent(&self, now: Instant) -> bool {
        match self.deadline {
            Some(d) => now.duration_since(self.submitted) * 2 >= d,
            None => false,
        }
    }
}

/// One session's backlog within one queue of [`Scheduler`], plus its
/// DRR deficit credit for that queue.
#[derive(Debug)]
struct SessionQueue<T> {
    jobs: VecDeque<(T, JobMeta)>,
    deficit: f64,
}

impl<T> SessionQueue<T> {
    fn new() -> Self {
        SessionQueue { jobs: VecDeque::new(), deficit: 0.0 }
    }
}

/// Deficit round-robin across the sessions queued in one queue.
#[derive(Debug)]
struct DrrLane<T> {
    sessions: BTreeMap<u64, SessionQueue<T>>,
    /// Sessions with queued work, in rotation order.
    order: VecDeque<u64>,
    depth: usize,
}

impl<T> DrrLane<T> {
    fn new() -> Self {
        DrrLane { sessions: BTreeMap::new(), order: VecDeque::new(), depth: 0 }
    }

    fn push(&mut self, session: u64, item: T, meta: JobMeta) {
        self.depth += 1;
        let sq = self.sessions.entry(session).or_insert_with(|| {
            self.order.push_back(session);
            SessionQueue::new()
        });
        sq.jobs.push_back((item, meta));
    }

    /// DRR pop (Shreedhar & Varghese). Conceptually: rotate through
    /// the sessions, granting each visit `quantum` cost-blocks of
    /// credit, until a session's credit covers its head job — cheap
    /// sessions get a turn nearly every rotation while a session
    /// flooding expensive scans pays for its weight in skipped turns.
    /// Computed in closed form rather than by literal rotation (a
    /// 100k-block head job would otherwise spin thousands of
    /// iterations under the queue mutex): the session at rotation
    /// position `p` is visited at steps `p, p+n, …` and can serve at
    /// its `v`-th top-up where `v = ceil((weight − deficit)/q_s)` with
    /// `q_s = quantum × session_weight` (the per-session effective
    /// quantum), so the winner is the smallest `p + v·n` — identical
    /// schedule, O(sessions) per pop. The deficit is dropped when a
    /// session drains, so idle sessions cannot bank credit.
    fn pop(&mut self, quantum: f64) -> Option<(T, JobMeta)> {
        let n = self.order.len();
        if n == 0 {
            return None;
        }
        // The step at which each session could first serve; all steps
        // are distinct mod n, so the minimum is unique. The effective
        // quantum is read off the head job — it is the only job whose
        // affordability this pop decides, and its weight rides with it.
        let (t_star, winner_pos) = self
            .order
            .iter()
            .enumerate()
            .map(|(pos, sid)| {
                let sq = &self.sessions[sid];
                let head = &sq.jobs.front().expect("ordered session has work").1;
                let gap = (head.weight() - sq.deficit).max(0.0);
                let visits = (gap / (quantum * head.session_weight)).ceil() as usize;
                (pos + visits * n, pos)
            })
            .min()
            .expect("non-empty order");
        // Replay the credit every session would have accrued over the
        // skipped steps: position p is topped up at steps p, p+n, …
        // strictly before t_star, each top-up scaled by that session's
        // weight.
        for (pos, sid) in self.order.iter().enumerate() {
            let visits = if pos < t_star { (t_star - pos).div_ceil(n) } else { 0 };
            let sq = self.sessions.get_mut(sid).expect("ordered session exists");
            let q = quantum * sq.jobs.front().expect("ordered session has work").1.session_weight;
            sq.deficit += visits as f64 * q;
        }
        // The loop would have rotated once per skipped step, leaving
        // the winner at the front.
        self.order.rotate_left(t_star % n);
        let sid = *self.order.front().expect("non-empty order");
        debug_assert_eq!(winner_pos % n, t_star % n);
        let sq = self.sessions.get_mut(&sid).expect("winner session exists");
        let (item, meta) = sq.jobs.pop_front().expect("head exists");
        debug_assert!(sq.deficit >= meta.weight() - 1e-9, "winner must afford its head");
        sq.deficit -= meta.weight();
        self.depth -= 1;
        self.retire_if_empty(sid);
        Some((item, meta))
    }

    /// Remove the first urgent job (deadline half-burned), if any.
    fn take_urgent(&mut self, now: Instant) -> Option<(T, JobMeta)> {
        let sid = *self
            .order
            .iter()
            .find(|sid| self.sessions[sid].jobs.iter().any(|(_, m)| m.urgent(now)))?;
        let sq = self.sessions.get_mut(&sid).expect("session exists");
        let pos = sq.jobs.iter().position(|(_, m)| m.urgent(now)).expect("urgent job exists");
        let (item, mut meta) = sq.jobs.remove(pos).expect("position exists");
        meta.promoted = true;
        sq.deficit = (sq.deficit - meta.weight()).max(0.0);
        self.depth -= 1;
        self.retire_if_empty(sid);
        Some((item, meta))
    }

    fn retire_if_empty(&mut self, sid: u64) {
        if self.sessions.get(&sid).is_some_and(|sq| sq.jobs.is_empty()) {
            self.sessions.remove(&sid);
            self.order.retain(|&s| s != sid);
        }
    }
}

/// Consecutive [`Scheduler`] pops allowed to bypass a non-empty
/// maintenance lane before it is force-served one job. Strict lane
/// priority otherwise starves maintenance forever under sustained
/// foreground load — folds and adaptations would never run — so at
/// worst maintenance gets 1 in every `MAINT_STARVATION_CAP + 1` pops.
pub const MAINT_STARVATION_CAP: u32 = 8;

/// The admission queue: strict priority across [`LANE_COUNT`] DRR
/// queues, with deadline promotion and the maintenance starvation cap.
/// The policy picks each job's `(queue, session)` slot; see the module
/// docs.
#[derive(Debug)]
pub struct Scheduler<T> {
    policy: SchedPolicy,
    queues: [DrrLane<T>; LANE_COUNT],
    quantum: f64,
    /// Jobs one queue may hold before admission into it waits.
    capacity: usize,
    /// Queued jobs per job lane (the gauges), whatever queue they sit in.
    depths: [usize; LANE_COUNT],
    /// Consecutive pops that served another queue while maintenance
    /// work was queued.
    maint_bypassed: u32,
}

impl<T> Scheduler<T> {
    /// A scheduler under `policy`, holding at most `capacity` jobs per
    /// queue, with a DRR quantum in cost-block units.
    pub fn new(policy: SchedPolicy, capacity: usize, quantum: f64) -> Self {
        Scheduler {
            policy,
            queues: std::array::from_fn(|_| DrrLane::new()),
            quantum: quantum.max(1.0),
            capacity: capacity.max(1),
            depths: [0; LANE_COUNT],
            maint_bypassed: 0,
        }
    }

    /// The `(queue, session)` slot a job of `lane` from `session` waits in.
    fn slot(&self, lane: Lane, session: u64) -> (usize, u64) {
        match self.policy {
            SchedPolicy::Fifo => (0, 0),
            SchedPolicy::Lanes => (lane.index(), 0),
            SchedPolicy::Fair => (lane.index(), session),
        }
    }

    /// Short policy name for reports (`"fifo"`, `"lanes"`, `"fair"`).
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    /// False when admitting a job with this metadata must wait: the
    /// queue it would join is at capacity.
    pub fn has_room(&self, meta: &JobMeta) -> bool {
        self.queues[self.slot(meta.lane, meta.session).0].depth < self.capacity
    }

    /// Enqueue. Callers check [`Scheduler::has_room`] first.
    pub fn push(&mut self, item: T, meta: JobMeta) {
        let (queue, session) = self.slot(meta.lane, meta.session);
        self.depths[meta.lane.index()] += 1;
        self.queues[queue].push(session, item, meta);
    }

    /// The next job to run, or `None` when empty. Sets
    /// [`JobMeta::promoted`] when the pick came from deadline promotion.
    pub fn pop(&mut self) -> Option<(T, JobMeta)> {
        let (item, meta) = self.next()?;
        self.depths[meta.lane.index()] -= 1;
        Some((item, meta))
    }

    fn next(&mut self) -> Option<(T, JobMeta)> {
        // Deadline promotion first: an urgent batch/maintenance job
        // runs next no matter whose deficit is due.
        let now = Instant::now();
        if let Some(promoted) = self.queues.iter_mut().skip(1).find_map(|l| l.take_urgent(now)) {
            return Some(promoted);
        }
        let quantum = self.quantum;
        let maint = Lane::Maintenance.index();
        // Starvation cap: once enough consecutive pops have bypassed
        // queued maintenance work, serve it regardless of lane order.
        if self.maint_bypassed >= MAINT_STARVATION_CAP && self.queues[maint].depth > 0 {
            if let Some(job) = self.queues[maint].pop(quantum) {
                self.maint_bypassed = 0;
                return Some(job);
            }
        }
        let out = self.queues.iter_mut().find_map(|l| l.pop(quantum));
        if let Some((_, meta)) = &out {
            if meta.lane != Lane::Maintenance && self.queues[maint].depth > 0 {
                self.maint_bypassed += 1;
            } else {
                self.maint_bypassed = 0;
            }
        }
        out
    }

    /// Total queued jobs.
    pub fn len(&self) -> usize {
        self.depths.iter().sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued jobs per lane (gauges).
    pub fn lane_depths(&self) -> [usize; LANE_COUNT] {
        self.depths
    }

    /// Per-lane counts of queued jobs that would run *before* a new
    /// arrival in `lane`: every lane whose queue is served no later
    /// than the arrival's — all of them under `Fifo`, the same and
    /// higher lanes otherwise. The input to the per-lane wait
    /// estimate, so a drained batch lane never masks (or inflates) the
    /// interactive backlog. Rotation order within the arrival's own
    /// queue makes this a mean-field estimate under `Fair`.
    pub fn depths_ahead(&self, lane: Lane) -> [usize; LANE_COUNT] {
        let own = self.slot(lane, 0).0;
        LANES.map(|l| if self.slot(l, 0).0 <= own { self.depths[l.index()] } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(session: u64, lane: Lane, cost: usize) -> JobMeta {
        JobMeta::new(session, lane, cost, None)
    }

    fn drain<T>(s: &mut Scheduler<T>) -> Vec<(T, JobMeta)> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    fn fifo<T>(capacity: usize) -> Scheduler<T> {
        Scheduler::new(SchedPolicy::Fifo, capacity, 8.0)
    }

    fn lanes<T>(capacity: usize) -> Scheduler<T> {
        Scheduler::new(SchedPolicy::Lanes, capacity, 8.0)
    }

    fn fair<T>(capacity: usize, quantum: f64) -> Scheduler<T> {
        Scheduler::new(SchedPolicy::Fair, capacity, quantum)
    }

    #[test]
    fn fifo_preserves_arrival_order_across_lanes() {
        let mut f = fifo(8);
        f.push(1, meta(1, Lane::Batch, 50));
        f.push(2, meta(2, Lane::Interactive, 1));
        f.push(3, meta(1, Lane::Maintenance, 10));
        assert_eq!(f.lane_depths(), [1, 1, 1]);
        assert_eq!(f.depths_ahead(Lane::Interactive), [1, 1, 1], "fifo: everything is ahead");
        let order: Vec<i32> = drain(&mut f).into_iter().map(|(v, _)| v).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_capacity_bounds_admission() {
        let mut f = fifo(2);
        assert!(f.has_room(&meta(1, Lane::Interactive, 1)));
        f.push(1, meta(1, Lane::Interactive, 1));
        f.push(2, meta(1, Lane::Batch, 1));
        assert!(!f.has_room(&meta(1, Lane::Interactive, 1)));
        f.pop();
        assert!(f.has_room(&meta(1, Lane::Interactive, 1)));
    }

    #[test]
    fn lanes_serve_strict_priority() {
        let mut p = lanes(4);
        p.push(10, meta(1, Lane::Batch, 50));
        p.push(11, meta(1, Lane::Maintenance, 5));
        p.push(12, meta(2, Lane::Interactive, 1));
        p.push(13, meta(1, Lane::Batch, 50));
        p.push(14, meta(3, Lane::Interactive, 1));
        let order: Vec<i32> = drain(&mut p).into_iter().map(|(v, _)| v).collect();
        assert_eq!(order, vec![12, 14, 10, 13, 11], "interactive, then batch FIFO, then maint");
    }

    #[test]
    fn lane_caps_are_independent() {
        let p: Scheduler<i32> = {
            let mut p = lanes(2);
            p.push(1, meta(1, Lane::Batch, 9));
            p.push(2, meta(1, Lane::Batch, 9));
            p
        };
        // Batch full; interactive still admits — a storm only
        // backpressures its own lane.
        assert!(!p.has_room(&meta(2, Lane::Batch, 9)));
        assert!(p.has_room(&meta(2, Lane::Interactive, 1)));
    }

    #[test]
    fn lanes_depths_ahead_ignore_lower_lanes() {
        let mut p = lanes(8);
        p.push(1, meta(1, Lane::Batch, 50));
        p.push(2, meta(1, Lane::Batch, 50));
        p.push(3, meta(1, Lane::Maintenance, 5));
        // A drained interactive lane means an interactive arrival waits
        // on nothing — the batch backlog must not mask that.
        assert_eq!(p.depths_ahead(Lane::Interactive), [0, 0, 0]);
        assert_eq!(p.depths_ahead(Lane::Batch), [0, 2, 0]);
        assert_eq!(p.depths_ahead(Lane::Maintenance), [0, 2, 1]);
    }

    #[test]
    fn deadline_promotion_overtakes_older_batch_work() {
        let mut p = lanes(8);
        p.push(1, meta(1, Lane::Batch, 50));
        p.push(2, meta(1, Lane::Batch, 50));
        // Deadline 0: urgent immediately (half of zero has elapsed).
        p.push(3, JobMeta::new(2, Lane::Batch, 50, Some(Duration::ZERO)));
        p.push(4, meta(1, Lane::Batch, 50));
        let (first, m) = p.pop().unwrap();
        assert_eq!(first, 3, "promoted ahead of older batch work");
        assert!(m.promoted);
        let rest: Vec<i32> = drain(&mut p).into_iter().map(|(v, _)| v).collect();
        assert_eq!(rest, vec![1, 2, 4]);
    }

    #[test]
    fn unexpired_deadlines_do_not_promote() {
        let mut p = lanes(8);
        p.push(1, meta(1, Lane::Batch, 50));
        p.push(2, JobMeta::new(2, Lane::Batch, 50, Some(Duration::from_secs(3600))));
        let (first, m) = p.pop().unwrap();
        assert_eq!(first, 1, "an hour-long deadline is not urgent yet");
        assert!(!m.promoted);
    }

    #[test]
    fn fair_share_weights_sessions_by_cost() {
        // Session 1 floods expensive jobs (cost 50); sessions 2 and 3
        // run point queries (cost 1). With quantum 10, session 1 needs
        // 5 rotations of credit per job while 2 and 3 run every
        // rotation: the cheap sessions finish all 4 jobs each before
        // the storm drains.
        let mut f = fair(64, 10.0);
        for i in 0..4 {
            f.push(100 + i, meta(1, Lane::Interactive, 50));
            f.push(200 + i, meta(2, Lane::Interactive, 1));
            f.push(300 + i, meta(3, Lane::Interactive, 1));
        }
        let order: Vec<i32> = drain(&mut f).into_iter().map(|(v, _)| v).collect();
        assert_eq!(order.len(), 12);
        let storm_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, v)| **v >= 100 && **v < 200)
            .map(|(i, _)| i)
            .collect();
        let cheap_last =
            order.iter().enumerate().filter(|(_, v)| **v >= 200).map(|(i, _)| i).max().unwrap();
        assert!(
            storm_positions.iter().filter(|&&p| p < cheap_last).count() <= 2,
            "storm jobs must mostly wait behind cheap sessions: {order:?}"
        );
        // Per-session FIFO order is preserved.
        let s2: Vec<i32> = order.iter().copied().filter(|v| (200..300).contains(v)).collect();
        assert_eq!(s2, vec![200, 201, 202, 203]);
    }

    /// Literal one-step DRR rotation — the specification the
    /// closed-form [`DrrLane::pop`] must reproduce exactly. Each job is
    /// `(session, cost_blocks, session_weight)`; the per-visit top-up
    /// is `quantum × head job's session weight`.
    fn reference_drr(jobs: &[(u64, usize, f64)], quantum: f64) -> Vec<i32> {
        use std::collections::BTreeMap;
        /// One session's FIFO of `(job, cost, session_weight)` plus its deficit.
        type SessionQueue = (VecDeque<(i32, f64, f64)>, f64);
        let mut queues: BTreeMap<u64, SessionQueue> = BTreeMap::new();
        let mut order: VecDeque<u64> = VecDeque::new();
        for (i, (sid, w, sw)) in jobs.iter().enumerate() {
            if !queues.contains_key(sid) {
                order.push_back(*sid);
            }
            queues.entry(*sid).or_default().0.push_back((i as i32, *w.max(&1) as f64, *sw));
        }
        let mut out = Vec::new();
        while let Some(&sid) = order.front() {
            let (q, deficit) = queues.get_mut(&sid).unwrap();
            let (item, w, sw) = *q.front().unwrap();
            if *deficit >= w {
                q.pop_front();
                *deficit -= w;
                out.push(item);
                if q.is_empty() {
                    queues.remove(&sid);
                    order.retain(|&s| s != sid);
                }
            } else {
                *deficit += quantum * sw;
                order.rotate_left(1);
            }
        }
        out
    }

    #[test]
    fn fair_share_closed_form_matches_reference_rotation() {
        // A scripted mix of sessions and weights, including one job far
        // heavier than the quantum (the case the closed form exists
        // for): the schedule must be identical to literal rotation.
        let quantum = 8.0;
        let jobs: &[(u64, usize, f64)] = &[
            (1, 50, 1.0),
            (2, 1, 1.0),
            (3, 7, 1.0),
            (1, 3, 1.0),
            (2, 120_000, 1.0),
            (3, 8, 1.0),
            (4, 1, 1.0),
            (1, 9, 1.0),
            (4, 33, 1.0),
            (2, 2, 1.0),
            (5, 4, 1.0),
        ];
        let mut s = fair(64, quantum);
        for (i, (sid, w, _)) in jobs.iter().enumerate() {
            s.push(i as i32, meta(*sid, Lane::Interactive, *w));
        }
        let got: Vec<i32> = drain(&mut s).into_iter().map(|(v, _)| v).collect();
        assert_eq!(got, reference_drr(jobs, quantum));
    }

    #[test]
    fn weighted_closed_form_matches_reference_rotation() {
        // Session weights scale the per-visit top-up; the closed form
        // must still reproduce literal rotation exactly, including a
        // heavy job under a fractional weight (many skipped visits).
        let quantum = 8.0;
        let jobs: &[(u64, usize, f64)] = &[
            (1, 50, 0.5),
            (2, 1, 4.0),
            (3, 7, 1.0),
            (1, 3, 0.5),
            (2, 9_000, 4.0),
            (3, 8, 1.0),
            (4, 64, 2.0),
            (1, 9, 0.5),
            (4, 33, 2.0),
            (5, 4, 16.0),
        ];
        let mut s = fair(64, quantum);
        for (i, (sid, w, sw)) in jobs.iter().enumerate() {
            s.push(i as i32, meta(*sid, Lane::Interactive, *w).with_weight(*sw));
        }
        let got: Vec<i32> = drain(&mut s).into_iter().map(|(v, _)| v).collect();
        assert_eq!(got, reference_drr(jobs, quantum));
    }

    #[test]
    fn weighted_session_drains_proportionally_faster() {
        // Equal-cost jobs, one weight-4 session vs a weight-1 peer at
        // quantum 4: the weighted session affords its 16-block job every
        // rotation while the peer needs 4 top-ups per job, so the
        // weighted session finishes all its work before the peer serves
        // a second job.
        let mut f = fair(64, 4.0);
        for i in 0..4 {
            f.push(100 + i, meta(1, Lane::Interactive, 16).with_weight(4.0));
            f.push(200 + i, meta(2, Lane::Interactive, 16));
        }
        let order: Vec<i32> = drain(&mut f).into_iter().map(|(v, _)| v).collect();
        let last_weighted = order.iter().position(|&v| v == 103).unwrap();
        let second_peer = order.iter().position(|&v| v == 201).unwrap();
        assert!(
            last_weighted < second_peer,
            "weight-4 session must drain before the peer's second job: {order:?}"
        );
        // Both sessions keep FIFO order internally.
        let s1: Vec<i32> = order.iter().copied().filter(|v| (100..200).contains(v)).collect();
        assert_eq!(s1, vec![100, 101, 102, 103]);
    }

    #[test]
    fn maintenance_lane_escapes_starvation_at_cap() {
        let mut f = fair(64, 8.0);
        f.push(999, meta(9, Lane::Maintenance, 1));
        for i in 0..20 {
            f.push(i, meta(1, Lane::Interactive, 1));
        }
        // Strict priority serves interactive work until the bypass
        // counter hits the cap, then maintenance gets exactly one turn.
        let mut served = Vec::new();
        for _ in 0..=MAINT_STARVATION_CAP {
            served.push(f.pop().unwrap().0);
        }
        assert_eq!(*served.last().unwrap(), 999, "maintenance served at the cap: {served:?}");
        assert_eq!(served[..MAINT_STARVATION_CAP as usize], (0..8).collect::<Vec<i32>>()[..]);
        // With maintenance drained the counter resets and interactive
        // work resumes in FIFO order.
        assert_eq!(f.pop().unwrap().0, 8);
    }

    #[test]
    fn fair_share_serves_interactive_lane_before_batch() {
        let mut f = fair(64, 8.0);
        f.push(1, meta(1, Lane::Batch, 400));
        f.push(2, meta(2, Lane::Batch, 400));
        f.push(3, meta(3, Lane::Interactive, 4));
        // The interactive arrival overtakes the queued batch work of
        // other sessions — Fair protects the interactive lane exactly
        // like Lanes, then shares within lanes.
        assert_eq!(f.pop().unwrap().0, 3);
        assert_eq!(f.depths_ahead(Lane::Interactive), [0, 0, 0]);
        let rest: Vec<i32> = drain(&mut f).into_iter().map(|(v, _)| v).collect();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn fair_share_single_session_degenerates_to_fifo() {
        let mut f = fair(64, 4.0);
        for i in 0..5 {
            f.push(i, meta(7, Lane::Interactive, 30));
        }
        let order: Vec<i32> = drain(&mut f).into_iter().map(|(v, _)| v).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn fair_share_promotes_deadlines_across_sessions() {
        let mut f = fair(64, 4.0);
        f.push(1, meta(1, Lane::Interactive, 1));
        f.push(2, JobMeta::new(2, Lane::Batch, 50, Some(Duration::ZERO)));
        let (first, m) = f.pop().unwrap();
        assert_eq!(first, 2);
        assert!(m.promoted);
        assert_eq!(f.pop().unwrap().0, 1);
        assert!(f.pop().is_none());
    }

    #[test]
    fn fair_share_lane_caps_and_depths() {
        let mut f = fair(1, 4.0);
        f.push(1, meta(1, Lane::Batch, 5));
        assert!(!f.has_room(&meta(2, Lane::Batch, 5)), "global batch cap reached");
        assert!(f.has_room(&meta(2, Lane::Interactive, 1)));
        f.push(2, meta(2, Lane::Interactive, 1));
        assert_eq!(f.lane_depths(), [1, 1, 0]);
        assert_eq!(f.depths_ahead(Lane::Interactive), [1, 0, 0]);
        assert_eq!(f.depths_ahead(Lane::Batch), [1, 1, 0]);
    }

    #[test]
    fn build_maps_policy_names() {
        assert_eq!(fifo::<i32>(4).name(), "fifo");
        assert_eq!(lanes::<i32>(4).name(), "lanes");
        assert_eq!(fair::<i32>(4, 8.0).name(), "fair");
    }

    #[test]
    fn lanes_maintenance_escapes_starvation_at_cap() {
        // The cap holds under Lanes too: strict priority would starve
        // the explicitly tagged maintenance job behind this backlog.
        let mut p = lanes(64);
        p.push(999, meta(9, Lane::Maintenance, 1));
        for i in 0..20 {
            p.push(i, meta(1, Lane::Batch, 50));
        }
        let served: Vec<i32> = (0..=MAINT_STARVATION_CAP).map(|_| p.pop().unwrap().0).collect();
        assert_eq!(served[..MAINT_STARVATION_CAP as usize], (0..8).collect::<Vec<i32>>()[..]);
        assert_eq!(*served.last().unwrap(), 999, "maintenance served at the cap: {served:?}");
        assert_eq!(p.pop().unwrap().0, 8);
    }

    /// The parent implementation a policy must reproduce.
    enum Reference {
        Fifo(reference::Fifo<u32>),
        Lanes(reference::PriorityLanes<u32>),
        Fair(reference::FairShare<u32>),
    }

    impl Reference {
        fn new(policy: SchedPolicy, capacity: usize, quantum: f64) -> Self {
            let caps = [capacity; LANE_COUNT];
            match policy {
                SchedPolicy::Fifo => Reference::Fifo(reference::Fifo::new(capacity)),
                SchedPolicy::Lanes => Reference::Lanes(reference::PriorityLanes::new(caps)),
                SchedPolicy::Fair => Reference::Fair(reference::FairShare::new(caps, quantum)),
            }
        }

        fn get(&mut self) -> &mut dyn reference::Scheduler<u32> {
            match self {
                Reference::Fifo(r) => r,
                Reference::Lanes(r) => r,
                Reference::Fair(r) => r,
            }
        }
    }

    const SCRIPT_OPS: usize = 400;

    /// Drive one random script of pushes, pops, room checks and gauge
    /// reads against `policy` and its reference, comparing every
    /// answer. `Lanes` gains the maintenance starvation cap: where it
    /// is due, the reference's answer is its maintenance lane's head.
    /// Returns how many pops found the cap due.
    fn run_script(policy: SchedPolicy, seed: u64) -> usize {
        use rand::RngExt;
        let mut rng = adaptdb_common::rng::seeded(seed);
        let capacity = rng.random_range(1..=8usize);
        let quantum = rng.random_range(1..=32usize) as f64;
        let weights: [f64; 4] = std::array::from_fn(|_| 0.5 + 3.5 * rng.random());
        let deadlines = [None, Some(Duration::ZERO), Some(Duration::from_secs(3600))];
        let mut got = Scheduler::new(policy, capacity, quantum);
        let mut want = Reference::new(policy, capacity, quantum);
        let (mut next_id, mut caps_due) = (0u32, 0);
        for op in 0..SCRIPT_OPS {
            let session = rng.random_range(1..=4u64);
            let lane = match rng.random_range(0..10u32) {
                0..=4 => Lane::Interactive,
                5..=8 => Lane::Batch,
                _ => Lane::Maintenance,
            };
            let cost = rng.random_range(1..=200usize);
            let deadline = deadlines[rng.random_range(0..deadlines.len())];
            let meta = JobMeta::new(session, lane, cost, deadline)
                .with_weight(weights[session as usize - 1]);
            let ctx = || format!("{policy} seed {seed} op {op}");
            match rng.random_range(0..10u32) {
                0..=3 => {
                    let room = got.has_room(&meta);
                    assert_eq!(room, want.get().has_room(&meta), "has_room: {}", ctx());
                    if room {
                        got.push(next_id, meta.clone());
                        want.get().push(next_id, meta);
                        next_id += 1;
                    }
                }
                4..=6 => {
                    let maint = Lane::Maintenance.index();
                    let cap_due =
                        got.maint_bypassed >= MAINT_STARVATION_CAP && got.queues[maint].depth > 0;
                    caps_due += usize::from(cap_due);
                    let a = got.pop();
                    let b = match &mut want {
                        Reference::Lanes(r)
                            if cap_due && !a.as_ref().is_some_and(|j| j.1.promoted) =>
                        {
                            r.pop_maintenance()
                        }
                        r => r.get().pop(),
                    };
                    let key = |j: Option<(u32, JobMeta)>| j.map(|(v, m)| (v, m.lane, m.promoted));
                    assert_eq!(key(a), key(b), "pop: {}", ctx());
                }
                7 => assert_eq!(got.has_room(&meta), want.get().has_room(&meta), "{}", ctx()),
                8 => {
                    let r = want.get();
                    assert_eq!(got.lane_depths(), r.lane_depths(), "lane_depths: {}", ctx());
                    assert_eq!(got.len(), r.len(), "len: {}", ctx());
                    assert_eq!(got.is_empty(), r.is_empty(), "is_empty: {}", ctx());
                }
                _ => assert_eq!(
                    got.depths_ahead(lane),
                    want.get().depths_ahead(lane),
                    "depths_ahead({lane}): {}",
                    ctx()
                ),
            }
        }
        assert_eq!(got.name(), want.get().name());
        caps_due
    }

    #[test]
    fn every_policy_matches_its_reference_on_random_scripts() {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Lanes, SchedPolicy::Fair] {
            let caps_due: usize = (0..200).map(|seed| run_script(policy, seed)).sum();
            // Fifo never fills queue 2, so its cap is never due; the
            // scripts must exercise the cap under the lane policies.
            assert_eq!(caps_due == 0, policy == SchedPolicy::Fifo, "{policy}: {caps_due} caps due");
        }
    }

    /// The three policies as separate implementations behind a trait,
    /// kept verbatim as the specification each slot map of
    /// [`Scheduler`] must reproduce.
    mod reference {
        use std::collections::VecDeque;
        use std::time::Instant;

        use adaptdb::cost::{Lane, LANE_COUNT};

        use super::super::{DrrLane, JobMeta, MAINT_STARVATION_CAP};

        /// An admission-queue ordering policy. Implementations are plain data
        /// structures; [`crate::queue::SchedQueue`] supplies blocking,
        /// capacity waits, and close semantics around them.
        pub trait Scheduler<T>: Send {
            /// Short policy name for reports (`"fifo"`, `"lanes"`, `"fair"`).
            fn name(&self) -> &'static str;
            /// False when admitting a job with this metadata must wait
            /// (its lane — or the shared queue — is at capacity).
            fn has_room(&self, meta: &JobMeta) -> bool;
            /// Enqueue. Callers check [`Scheduler::has_room`] first.
            fn push(&mut self, item: T, meta: JobMeta);
            /// The next job to run, or `None` when empty. Policies set
            /// [`JobMeta::promoted`] when the pick came from deadline
            /// promotion.
            fn pop(&mut self) -> Option<(T, JobMeta)>;
            /// Total queued jobs.
            fn len(&self) -> usize;
            /// True when nothing is queued.
            fn is_empty(&self) -> bool {
                self.len() == 0
            }
            /// Queued jobs per lane (gauges).
            fn lane_depths(&self) -> [usize; LANE_COUNT];
            /// Per-lane counts of queued jobs that would run *before* a new
            /// arrival in `lane` — the input to the per-lane wait estimate, so
            /// a drained batch lane never masks (or inflates) the interactive
            /// backlog.
            fn depths_ahead(&self, lane: Lane) -> [usize; LANE_COUNT];
        }

        fn lane_queues<T>() -> [VecDeque<(T, JobMeta)>; LANE_COUNT] {
            std::array::from_fn(|_| VecDeque::new())
        }

        fn depth_of<T>(lanes: &[VecDeque<(T, JobMeta)>; LANE_COUNT]) -> [usize; LANE_COUNT] {
            std::array::from_fn(|i| lanes[i].len())
        }

        /// Remove the first urgent job (deadline half-burned) from the batch or
        /// maintenance lane, marking it promoted. Interactive jobs never need
        /// promotion — they are already in the top lane.
        fn take_urgent<T>(
            lanes: &mut [VecDeque<(T, JobMeta)>; LANE_COUNT],
        ) -> Option<(T, JobMeta)> {
            let now = Instant::now();
            for lane in lanes.iter_mut().skip(1) {
                if let Some(pos) = lane.iter().position(|(_, m)| m.urgent(now)) {
                    let (item, mut meta) = lane.remove(pos).expect("position exists");
                    meta.promoted = true;
                    return Some((item, meta));
                }
            }
            None
        }

        /// The original bounded FIFO, as a policy: one queue, arrival order,
        /// one shared capacity. Lane tallies are kept for the gauges only.
        #[derive(Debug)]
        pub struct Fifo<T> {
            items: VecDeque<(T, JobMeta)>,
            capacity: usize,
            depths: [usize; LANE_COUNT],
        }

        impl<T> Fifo<T> {
            /// A FIFO admitting at most `capacity` pending jobs.
            pub fn new(capacity: usize) -> Self {
                Fifo { items: VecDeque::new(), capacity: capacity.max(1), depths: [0; LANE_COUNT] }
            }
        }

        impl<T: Send> Scheduler<T> for Fifo<T> {
            fn name(&self) -> &'static str {
                "fifo"
            }

            fn has_room(&self, _meta: &JobMeta) -> bool {
                self.items.len() < self.capacity
            }

            fn push(&mut self, item: T, meta: JobMeta) {
                self.depths[meta.lane.index()] += 1;
                self.items.push_back((item, meta));
            }

            fn pop(&mut self) -> Option<(T, JobMeta)> {
                let (item, meta) = self.items.pop_front()?;
                self.depths[meta.lane.index()] -= 1;
                Some((item, meta))
            }

            fn len(&self) -> usize {
                self.items.len()
            }

            fn lane_depths(&self) -> [usize; LANE_COUNT] {
                self.depths
            }

            fn depths_ahead(&self, _lane: Lane) -> [usize; LANE_COUNT] {
                // One queue: everything already waiting runs first, whatever
                // lane the new arrival belongs to.
                self.depths
            }
        }

        /// Strict-priority lanes with per-lane capacity and deadline promotion.
        #[derive(Debug)]
        pub struct PriorityLanes<T> {
            lanes: [VecDeque<(T, JobMeta)>; LANE_COUNT],
            caps: [usize; LANE_COUNT],
        }

        impl<T> PriorityLanes<T> {
            /// Lanes with the given per-lane capacities (clamped to ≥ 1).
            pub fn new(caps: [usize; LANE_COUNT]) -> Self {
                PriorityLanes { lanes: lane_queues(), caps: caps.map(|c| c.max(1)) }
            }
        }

        impl<T> PriorityLanes<T> {
            /// Serve the maintenance lane's head: what the starvation
            /// cap does when it fires.
            pub fn pop_maintenance(&mut self) -> Option<(T, JobMeta)> {
                self.lanes[Lane::Maintenance.index()].pop_front()
            }
        }

        impl<T: Send> Scheduler<T> for PriorityLanes<T> {
            fn name(&self) -> &'static str {
                "lanes"
            }

            fn has_room(&self, meta: &JobMeta) -> bool {
                self.lanes[meta.lane.index()].len() < self.caps[meta.lane.index()]
            }

            fn push(&mut self, item: T, meta: JobMeta) {
                self.lanes[meta.lane.index()].push_back((item, meta));
            }

            fn pop(&mut self) -> Option<(T, JobMeta)> {
                if let Some(promoted) = take_urgent(&mut self.lanes) {
                    return Some(promoted);
                }
                self.lanes.iter_mut().find_map(VecDeque::pop_front)
            }

            fn len(&self) -> usize {
                self.lanes.iter().map(VecDeque::len).sum()
            }

            fn lane_depths(&self) -> [usize; LANE_COUNT] {
                depth_of(&self.lanes)
            }

            fn depths_ahead(&self, lane: Lane) -> [usize; LANE_COUNT] {
                // Strictly higher-priority lanes run first, plus the occupants
                // of the arrival's own lane; lower lanes never get ahead.
                std::array::from_fn(|i| if i <= lane.index() { self.lanes[i].len() } else { 0 })
            }
        }

        /// Per-session fair share: lanes keep their strict priority (so the
        /// interactive lane is as protected as under [`PriorityLanes`]), and
        /// *within* each lane sessions share by deficit-weighted round-robin —
        /// one session's scan storm cannot crowd other sessions out of its own
        /// lane either. Deadline promotion applies across sessions and lanes,
        /// exactly as in [`PriorityLanes`]; the maintenance lane additionally
        /// carries a starvation cap (see [`MAINT_STARVATION_CAP`]).
        #[derive(Debug)]
        pub struct FairShare<T> {
            lanes: [DrrLane<T>; LANE_COUNT],
            quantum: f64,
            caps: [usize; LANE_COUNT],
            /// Consecutive pops that served another lane while maintenance
            /// work was queued.
            maint_bypassed: u32,
        }

        impl<T> FairShare<T> {
            /// Fair share with per-lane capacities and a DRR quantum in
            /// cost-block units.
            pub fn new(caps: [usize; LANE_COUNT], quantum: f64) -> Self {
                FairShare {
                    lanes: std::array::from_fn(|_| DrrLane::new()),
                    quantum: quantum.max(1.0),
                    caps: caps.map(|c| c.max(1)),
                    maint_bypassed: 0,
                }
            }
        }

        impl<T: Send> Scheduler<T> for FairShare<T> {
            fn name(&self) -> &'static str {
                "fair"
            }

            fn has_room(&self, meta: &JobMeta) -> bool {
                self.lanes[meta.lane.index()].depth < self.caps[meta.lane.index()]
            }

            fn push(&mut self, item: T, meta: JobMeta) {
                self.lanes[meta.lane.index()].push(meta.session, item, meta);
            }

            fn pop(&mut self) -> Option<(T, JobMeta)> {
                // Deadline promotion first: an urgent batch/maintenance job
                // runs next no matter whose deficit is due.
                let now = Instant::now();
                if let Some(promoted) =
                    self.lanes.iter_mut().skip(1).find_map(|l| l.take_urgent(now))
                {
                    return Some(promoted);
                }
                let quantum = self.quantum;
                let maint = Lane::Maintenance.index();
                // Starvation cap: once enough consecutive pops have bypassed
                // queued maintenance work, serve it regardless of lane order.
                if self.maint_bypassed >= MAINT_STARVATION_CAP && self.lanes[maint].depth > 0 {
                    if let Some(job) = self.lanes[maint].pop(quantum) {
                        self.maint_bypassed = 0;
                        return Some(job);
                    }
                }
                let out = self.lanes.iter_mut().find_map(|l| l.pop(quantum));
                if let Some((_, meta)) = &out {
                    if meta.lane != Lane::Maintenance && self.lanes[maint].depth > 0 {
                        self.maint_bypassed += 1;
                    } else {
                        self.maint_bypassed = 0;
                    }
                }
                out
            }

            fn len(&self) -> usize {
                self.lanes.iter().map(|l| l.depth).sum()
            }

            fn lane_depths(&self) -> [usize; LANE_COUNT] {
                std::array::from_fn(|i| self.lanes[i].depth)
            }

            fn depths_ahead(&self, lane: Lane) -> [usize; LANE_COUNT] {
                // Same-or-higher lanes run first, exactly as under
                // [`PriorityLanes`]; rotation order within the arrival's own
                // lane makes this a mean-field estimate, not an exact schedule.
                std::array::from_fn(|i| if i <= lane.index() { self.lanes[i].depth } else { 0 })
            }
        }
    }
}
