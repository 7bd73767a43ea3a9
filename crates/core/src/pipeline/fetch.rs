//! Fetch: shared fetch of merge groups with ITID tagging, the
//! MERGE/DETECT/CATCHUP synchronization driven by the Fetch History
//! Buffers (Section 4.1), control-transfer resolution, and divergence.

use super::{Lane, MacroOp, SimError, Simulator, PENDING_UOP};
use crate::config::{FetchPolicy, FetchStyle, SyncPolicy};
use crate::itid::Itid;
use mmt_frontend::SyncMode;
use mmt_isa::interp::StepInfo;
use mmt_isa::trace::TraceRecord;
use mmt_isa::{Inst, MAX_THREADS};
use mmt_obs::{FetchKind, ModeTag, ModeTrigger, TraceEvent};

/// A thread only enters CATCHUP when its progress since the last sync
/// event trails the other thread's by at least this many instructions
/// (filters the loop ambiguity where both threads' targets sit in both
/// FHBs).
const CATCHUP_ENTRY_SLACK: u64 = 1;

/// Abort a catch-up whose "behind" thread has sprinted this far past the
/// "ahead" thread's progress without their PCs meeting — the direction
/// was wrong (path-length asymmetry from detours makes progress a
/// slightly noisy measure, so allow some slack).
const CATCHUP_OVERSHOOT_SLACK: u64 = 256;

impl Simulator {
    /// Fetch for up to `max_fetch_threads` entities. Returns whether any
    /// front-end state changed: a fetch block resolved, a catch-up was
    /// cancelled, a hint park started or expired, groups remerged, or an
    /// entity accessed the instruction cache.
    pub(super) fn fetch_stage(&mut self) -> Result<bool, SimError> {
        let n = self.threads.len();
        let mut acted = false;

        // Unblock threads whose redirect has resolved.
        for t in 0..n {
            if let Some(b) = self.threads[t].blocked_on {
                if b == PENDING_UOP {
                    continue; // the blocking instruction has not dispatched yet
                }
                if let Some(c) = self.uops[b].complete_at {
                    acted = true;
                    let resume = c + self.cfg.redirect_penalty;
                    if self.now >= resume {
                        self.threads[t].blocked_on = None;
                    } else {
                        // Collapse into the cycle bound so fetchable() is
                        // a single comparison.
                        self.threads[t].blocked_until = self.threads[t].blocked_until.max(resume);
                        self.threads[t].blocked_on = None;
                    }
                }
            }
        }

        // Self-correct wrong-direction catch-ups: if the "behind" thread
        // has fetched past the "ahead" thread's progress without their
        // PCs meeting, the FHB hit pointed the wrong way (in loops both
        // threads' targets appear in both FHBs); abort and let the next
        // taken branch re-detect with the true direction.
        if self.cfg.level.shared_fetch() {
            for t in 0..n {
                if let SyncMode::Catchup { ahead } = self.sync.mode(t) {
                    if self.pair_progress_delta(t, ahead) > CATCHUP_OVERSHOOT_SLACK as i64 {
                        acted = true;
                        self.sync.cancel_catchup(t);
                        self.emit(TraceEvent::ModeTransition {
                            thread: t as u8,
                            to: ModeTag::Detect,
                            trigger: ModeTrigger::WrongDirection,
                        });
                    }
                }
            }
        }

        // Software-hint parking: expire stale parks.
        if self.cfg.sync_policy == SyncPolicy::SoftwareHints {
            for t in 0..n {
                if let Some(since) = self.threads[t].hint_parked_since {
                    let no_partner_possible = (0..n).all(|u| {
                        u == t
                            || self.threads[u].halted_fetch
                            || self.sync.group_mask(t) & (1 << u) != 0
                    });
                    if self.now >= since + self.cfg.hint_wait_limit || no_partner_possible {
                        acted = true;
                        self.threads[t].hint_skip_pc = Some(self.threads[t].machine.pc());
                        self.threads[t].hint_parked_since = None;
                    }
                }
            }
        }

        // Opportunistic remerge: identical PCs fetch together (Section
        // 4.1's base rule). Only fetchable (or hint-parked), independent
        // threads merge.
        if self.cfg.level.shared_fetch() {
            for a in 0..n {
                for b in (a + 1)..n {
                    if self.sync.group_mask(a) & (1 << b) != 0 {
                        continue; // already merged together
                    }
                    let ok = |s: &Self, t: usize| {
                        s.thread_fetchable(t) || s.threads[t].hint_parked_since.is_some()
                    };
                    if !ok(self, a) || !ok(self, b) {
                        continue;
                    }
                    let both_parked = self.threads[a].hint_parked_since.is_some()
                        && self.threads[b].hint_parked_since.is_some();
                    if self.threads[a].machine.pc() == self.threads[b].machine.pc()
                        && (both_parked
                            || self.pair_progress_delta(a, b).unsigned_abs()
                                <= self.cfg.merge_alignment_slack)
                    {
                        acted = true;
                        // Record remerge distances for catching-up threads.
                        for t in [a, b] {
                            if !self.sync.is_merged(t) {
                                let d = self.threads[t].branches_since_diverge;
                                if d > 0 {
                                    self.stats.record_remerge_distance(d);
                                }
                                self.threads[t].branches_since_diverge = 0;
                            }
                        }
                        self.merge_groups(a, b, ModeTrigger::PcMatch);
                    }
                }
            }
        }

        // Build fetch entities (merge groups / singleton threads) — at
        // most one per thread, so a fixed buffer holds them all.
        let mut entity_buf = [(0u8, 0usize); MAX_THREADS]; // (mask, lead)
        let mut n_entities = 0;
        for t in 0..n {
            let mask = if self.cfg.level.shared_fetch() {
                self.sync.group_mask(t)
            } else {
                1 << t
            };
            if mask.trailing_zeros() as usize == t {
                entity_buf[n_entities] = (mask, t);
                n_entities += 1;
            }
        }
        // Priority: CATCHUP-boosted first, then ICOUNT, throttled last.
        // (Unstable sort is fine: `lead` is a unique final tiebreaker.)
        let now = self.now;
        entity_buf[..n_entities].sort_unstable_by_key(|&(mask, lead)| {
            let members = Itid::from_mask(mask);
            let boosted = self.cfg.level.shared_fetch() && self.sync.boosted(lead);
            // A group is throttled when ANY member is being caught up to
            // — otherwise a singleton chasing a thread inside a merged
            // group can never close on it.
            let throttled =
                self.cfg.level.shared_fetch() && members.threads().any(|t| self.sync.throttled(t));
            let pick = match self.cfg.fetch_policy {
                FetchPolicy::ICount => members.threads().map(|t| self.threads[t].inflight).sum(),
                FetchPolicy::RoundRobin => ((lead as u64) + now) % MAX_THREADS as u64,
            };
            (!boosted, throttled, pick, lead)
        });

        let mut slots = self.cfg.fetch_width;
        let mut entities_fetched = 0;
        for &(mask, lead) in entity_buf.iter().take(n_entities) {
            if slots == 0 || entities_fetched >= self.cfg.max_fetch_threads {
                break;
            }
            // A mid-cycle CATCHUP merge may have restructured groups
            // after this list was built; skip stale entries.
            if self.cfg.level.shared_fetch() && self.sync.group_mask(lead) != mask {
                continue;
            }
            let members = Itid::from_mask(mask);
            if !members.threads().all(|t| self.thread_fetchable(t)) {
                continue;
            }
            if members
                .threads()
                .any(|t| self.threads[t].hint_parked_since.is_some())
            {
                continue; // parked at a software remerge hint
            }
            // Software-hint mode: an unmerged entity arriving at a hint
            // PC parks and waits for a partner (Thread Fusion's join).
            if self.cfg.sync_policy == SyncPolicy::SoftwareHints
                && self.cfg.level.shared_fetch()
                && members.count() < self.threads.len()
            {
                let pc = self.threads[lead].machine.pc();
                let skip = self.threads[lead].hint_skip_pc == Some(pc);
                if !skip {
                    acted |= self.threads[lead].hint_skip_pc.take().is_some();
                }
                let partner_exists = (0..self.threads.len())
                    .any(|u| !members.contains(u) && !self.threads[u].halted_fetch);
                // A partner already waiting at a *different* join means we
                // should keep running toward it instead of deadlocking at
                // our own.
                let partner_waits_elsewhere = (0..self.threads.len()).any(|u| {
                    !members.contains(u)
                        && self.threads[u].hint_parked_since.is_some()
                        && self.threads[u].machine.pc() != pc
                });
                if !skip
                    && partner_exists
                    && !partner_waits_elsewhere
                    && self.cfg.remerge_hints.contains(&pc)
                {
                    for t in members.threads() {
                        self.threads[t].hint_parked_since = Some(self.now);
                    }
                    acted = true;
                    continue;
                }
            }
            // Throttled (being caught up to) entities receive only
            // leftover fetch slots — they sort last, so when the
            // catching-up thread saturates fetch they are fully parked.
            // Parking matters beyond fairness: the merge must land on the
            // same loop iteration in both threads, and a crawling "ahead"
            // thread would drift across the lap boundary before the
            // behind thread arrives, ratcheting a permanent one-iteration
            // skew that destroys execute-identical merging.
            // Zero only when the decode queue was full: no cache access.
            let fetched = self.fetch_entity(members, slots)?;
            if fetched > 0 {
                acted = true;
                slots -= fetched;
                entities_fetched += 1;
            }
        }
        Ok(acted)
    }

    /// Signed progress difference of `t` relative to `u`, measured from
    /// the pair's last common synchronization point: positive means `t`
    /// has retired more instructions than `u` since they were last
    /// aligned.
    fn pair_progress_delta(&self, t: usize, u: usize) -> i64 {
        let (snap_t, snap_u) = self.pair_sync[t][u];
        let pt = (self.threads[t].machine.retired() - snap_t) as i64;
        let pu = (self.threads[u].machine.retired() - snap_u) as i64;
        pt - pu
    }

    /// Record that every thread pair within `mask` is synchronized right
    /// now (they share a PC: a merge, or the instant of a divergence).
    fn snapshot_pairs(&mut self, mask: u8) {
        let members = Itid::from_mask(mask);
        for t in members.threads() {
            for u in members.threads() {
                if t != u {
                    self.pair_sync[t][u] = (
                        self.threads[t].machine.retired(),
                        self.threads[u].machine.retired(),
                    );
                }
            }
        }
    }

    fn thread_fetchable(&self, t: usize) -> bool {
        let ts = &self.threads[t];
        !ts.halted_fetch && ts.blocked_on.is_none() && ts.blocked_until <= self.now
    }

    /// Fetch up to `max_insts` instructions for one entity; returns the
    /// number fetched.
    fn fetch_entity(&mut self, members: Itid, max_insts: usize) -> Result<usize, SimError> {
        if self.decode_queue.len() >= self.decode_capacity {
            return Ok(0);
        }
        let lead = members.lead();
        let pc0 = self.threads[lead].machine.pc();
        debug_assert!(
            members
                .threads()
                .all(|t| self.threads[t].machine.pc() == pc0),
            "merged threads must share a PC"
        );

        // One instruction-cache access per fetch group per cycle. A miss
        // blocks the whole entity until the line arrives.
        let icache = self.hierarchy.access_inst(0, pc0, self.now);
        if icache.completes_at > self.now + self.cfg.hierarchy.l1i.latency {
            // Miss (or hit-under-fill): the whole entity waits for the
            // line.
            for t in members.threads() {
                self.threads[t].blocked_until = icache.completes_at;
            }
            return Ok(1.min(max_insts)); // the slot was consumed by the attempt
        }

        let mut fetched = 0;
        while fetched < max_insts && self.decode_queue.len() < self.decode_capacity {
            let pc = self.threads[lead].machine.pc();
            // Software-hint mode: stop the burst when it reaches a hint
            // PC mid-cycle; the entity-start logic parks there next
            // cycle.
            if fetched > 0
                && self.cfg.sync_policy == SyncPolicy::SoftwareHints
                && members.count() < self.threads.len()
                && self.threads[lead].hint_skip_pc != Some(pc)
                && self.cfg.remerge_hints.contains(&pc)
            {
                break;
            }
            // Record fetch modes before stepping (what mode was each
            // thread in when this instruction was fetched?). The trace
            // event's kind comes from the same classification (a
            // non-merged entity is a singleton, so its one mode is the
            // one recorded) — the replay consistency test holds by
            // construction.
            let mut detect_mask = 0u8;
            let mut kind = FetchKind::Merged;
            for t in members.threads() {
                let mode = if self.cfg.level.shared_fetch() {
                    self.sync.mode(t)
                } else {
                    SyncMode::Detect
                };
                if members.is_merged() {
                    self.stats.fetch_modes.record(SyncMode::Merge);
                } else {
                    self.stats.fetch_modes.record(mode);
                    detect_mask |= 1 << t;
                    kind = match mode {
                        SyncMode::Merge => FetchKind::Merged,
                        SyncMode::Detect => FetchKind::Detect,
                        SyncMode::Catchup { .. } => FetchKind::Catchup,
                    };
                }
                if let Some(c) = self.stats.pc_profile.get_mut(pc as usize) {
                    c.record_fetch(mode, members.is_merged());
                }
            }
            self.emit(TraceEvent::Fetch {
                pc,
                mask: members.mask(),
                kind,
            });

            // Functionally execute for every member (the oracle step).
            // The full records stay here for control resolution; the
            // macro-op carries only the lanes.
            let mut infos = [None; MAX_THREADS];
            let mut lanes = [Lane::default(); MAX_THREADS];
            for t in members.threads() {
                let ts = &mut self.threads[t];
                let mem = &mut self.memories[ts.mem_idx];
                let info = ts.machine.step(&self.program, mem)?;
                lanes[t] = Lane::from_step(&info);
                infos[t] = Some(info);
            }
            let inst = member_info(&infos, lead, pc, "lead of a fetch group was not stepped")?.inst;
            fetched += 1;
            self.stats.macro_ops_fetched += 1;
            let records = self
                .cfg
                .record_merge_log
                .then(|| Box::new(infos.map(|info| info.as_ref().map(TraceRecord::from_step))));

            self.decode_queue.push_back(MacroOp {
                pc,
                inst,
                itid: members,
                lanes,
                records,
                ready_at: self.now + self.cfg.decode_latency,
                detect_mask,
                blocks_mask: 0,
            });

            // Control-flow and halt handling decide whether fetch for
            // this entity continues this cycle.
            let flow = self.post_fetch_control(members, pc, inst, &infos)?;

            // CATCHUP completion: the behind thread has reached the ahead
            // thread's PC — merge now so the next cycle fetches them as a
            // group (Section 4.1's remerge).
            if self.cfg.level.shared_fetch() && !members.is_merged() {
                if let SyncMode::Catchup { ahead } = self.sync.mode(lead) {
                    if !self.threads[ahead].halted_fetch
                        && self.threads[lead].machine.pc() == self.threads[ahead].machine.pc()
                        && self.pair_progress_delta(lead, ahead).unsigned_abs()
                            <= self.cfg.merge_alignment_slack
                    {
                        let d = self.threads[lead].branches_since_diverge;
                        if d > 0 {
                            self.stats.record_remerge_distance(d);
                        }
                        self.threads[lead].branches_since_diverge = 0;
                        self.threads[ahead].branches_since_diverge = 0;
                        self.merge_groups(lead, ahead, ModeTrigger::CatchupComplete);
                        break;
                    }
                }
            }

            match flow {
                FetchFlow::Continue => continue,
                FetchFlow::EndCycle => break,
            }
        }
        Ok(fetched)
    }

    fn post_fetch_control(
        &mut self,
        members: Itid,
        pc: u64,
        inst: Inst,
        infos: &[Option<StepInfo>; MAX_THREADS],
    ) -> Result<FetchFlow, SimError> {
        let lead = members.lead();
        match inst {
            Inst::Halt => {
                for t in members.threads() {
                    self.threads[t].halted_fetch = true;
                    if self.cfg.level.shared_fetch() {
                        self.emit_halt_transitions(t);
                        self.sync.force_detect(t);
                    }
                }
                Ok(FetchFlow::EndCycle)
            }
            Inst::Br { .. } => {
                self.stats.branches += members.count() as u64;
                self.stats.energy.bpred_accesses += 1 + members.count() as u64;
                let predicted_taken = self.bpred.predict(lead, pc);
                for t in members.threads() {
                    let taken = member_info(infos, t, pc, "conditional branch member")?
                        .taken
                        .ok_or(SimError::Desync {
                            pc,
                            thread: t,
                            context: "conditional branch step recorded no direction",
                        })?;
                    self.bpred.update(t, pc, taken);
                }
                self.resolve_control(members, pc, infos, predicted_taken)
            }
            Inst::Jmp { .. } | Inst::Jal { .. } => {
                if let Inst::Jal { .. } = inst {
                    for t in members.threads() {
                        self.rases[t].push(pc + 1);
                    }
                }
                // Static target: always predicted correctly.
                for t in members.threads() {
                    let target = member_info(infos, t, pc, "direct jump member")?.next_pc;
                    self.record_taken_branch(t, target);
                }
                Ok(self.taken_flow())
            }
            Inst::Jr { .. } => {
                // Predict through the RAS; resolve per member (fixed
                // buffers: a group has at most MAX_THREADS members).
                let mut lead_pred = None;
                for (i, t) in members.threads().enumerate() {
                    let pred = self.rases[t].pop();
                    if i == 0 {
                        lead_pred = pred;
                    }
                }
                let mut mispredicted = false;
                let mut targets = [(0usize, 0u64); MAX_THREADS];
                let mut n_targets = 0;
                for t in members.threads() {
                    let target = member_info(infos, t, pc, "indirect jump member")?.next_pc;
                    targets[n_targets] = (t, target);
                    n_targets += 1;
                }
                let targets = &targets[..n_targets];
                let uniform = targets.windows(2).all(|w| w[0].1 == w[1].1);
                if uniform {
                    if lead_pred != Some(targets[0].1) {
                        mispredicted = true;
                    }
                    for &(t, target) in targets {
                        self.record_taken_branch(t, target);
                    }
                    if mispredicted {
                        self.stats.branch_mispredicts += members.count() as u64;
                        self.block_members(members, pc)?;
                        Ok(FetchFlow::EndCycle)
                    } else {
                        Ok(self.taken_flow())
                    }
                } else {
                    let predicted_next = lead_pred.unwrap_or(targets[0].1);
                    self.diverge_members(members, pc, targets, predicted_next, None)?;
                    Ok(FetchFlow::EndCycle)
                }
            }
            _ => Ok(FetchFlow::Continue),
        }
    }

    /// Shared branch-resolution logic for conditional branches.
    fn resolve_control(
        &mut self,
        members: Itid,
        pc: u64,
        infos: &[Option<StepInfo>; MAX_THREADS],
        predicted_taken: bool,
    ) -> Result<FetchFlow, SimError> {
        let mut targets = [(0usize, 0u64); MAX_THREADS];
        let mut takens = [(0usize, false); MAX_THREADS];
        let mut n_members = 0;
        for t in members.threads() {
            let info = member_info(infos, t, pc, "conditional branch member")?;
            targets[n_members] = (t, info.next_pc);
            takens[n_members] = (t, info.taken == Some(true));
            n_members += 1;
        }
        let targets = &targets[..n_members];
        let takens = &takens[..n_members];
        let uniform = takens.windows(2).all(|w| w[0].1 == w[1].1);

        if uniform {
            let taken = takens[0].1;
            if predicted_taken != taken {
                self.stats.branch_mispredicts += members.count() as u64;
                self.block_members(members, pc)?;
                return Ok(FetchFlow::EndCycle);
            }
            if taken {
                let target = targets[0].1;
                // BTB: a first-encounter taken branch costs a fetch
                // bubble even when the direction was right.
                let btb_hit = self.btb.lookup(pc) == Some(target);
                self.btb.update(pc, target);
                for t in members.threads() {
                    self.record_taken_branch(t, target);
                }
                if !btb_hit {
                    return Ok(FetchFlow::EndCycle);
                }
                Ok(self.taken_flow())
            } else {
                Ok(FetchFlow::Continue)
            }
        } else {
            // Divergence: the merged group's threads disagree.
            let predicted_next = if predicted_taken {
                // All taken threads share one target for direct branches.
                targets
                    .iter()
                    .zip(takens)
                    .find(|(_, &(_, tk))| tk)
                    .map(|((_, pc), _)| *pc)
                    .unwrap_or(pc + 1)
            } else {
                pc + 1
            };
            self.diverge_members(members, pc, targets, predicted_next, Some(pc + 1))?;
            Ok(FetchFlow::EndCycle)
        }
    }

    /// How fetch proceeds after a correctly predicted taken transfer: a
    /// conventional front end ends the entity's cycle at the redirect, a
    /// trace cache keeps fetching.
    fn taken_flow(&self) -> FetchFlow {
        match self.cfg.fetch_style {
            FetchStyle::Conventional => FetchFlow::EndCycle,
            FetchStyle::TraceCache => FetchFlow::Continue,
        }
    }

    /// Record a taken control transfer in the FHB machinery and track
    /// remerge-distance counters (shared-fetch levels only).
    fn record_taken_branch(&mut self, t: usize, target: u64) {
        if !self.cfg.level.shared_fetch() {
            return;
        }
        if self.sync.mode(t) != SyncMode::Merge {
            self.threads[t].branches_since_diverge += 1;
        }
        if self.cfg.sync_policy == SyncPolicy::SoftwareHints {
            // Thread Fusion-style: no FHB recording or CAM search; the
            // remerge points come from software.
            return;
        }
        let event = self.sync.record_taken(t, target);
        // An FHB hit says the other thread passed this point, but inside
        // a loop both threads' targets live in both FHBs, so the hit
        // alone cannot tell who is behind. Boosting the *ahead* thread
        // would let it sprint away while the truly-behind thread is
        // throttled; cancel such wrong-direction catch-ups using the
        // per-thread retirement counters.
        match event {
            mmt_frontend::SyncEvent::CatchupEntered { behind, ahead } => {
                self.emit(TraceEvent::ModeTransition {
                    thread: behind as u8,
                    to: ModeTag::Catchup,
                    trigger: ModeTrigger::FhbHit,
                });
                if self.pair_progress_delta(behind, ahead) + CATCHUP_ENTRY_SLACK as i64 > 0 {
                    // Not convincingly behind: in a loop both threads'
                    // targets sit in both FHBs, so the hit alone cannot
                    // pick the direction; progress-since-last-sync can.
                    self.sync.cancel_catchup(behind);
                    self.emit(TraceEvent::ModeTransition {
                        thread: behind as u8,
                        to: ModeTag::Detect,
                        trigger: ModeTrigger::WrongDirection,
                    });
                }
            }
            mmt_frontend::SyncEvent::CatchupAborted { thread } => {
                self.emit(TraceEvent::ModeTransition {
                    thread: thread as u8,
                    to: ModeTag::Detect,
                    trigger: ModeTrigger::CatchupAbort,
                });
            }
            mmt_frontend::SyncEvent::None => {}
        }
    }

    /// Block every member's fetch until the just-fetched control
    /// instruction (the newest decode-queue entry) executes, plus the
    /// redirect penalty — the mispredict stall.
    fn block_members(&mut self, members: Itid, pc: u64) -> Result<(), SimError> {
        for t in members.threads() {
            self.threads[t].blocked_on = Some(PENDING_UOP);
        }
        self.decode_queue
            .back_mut()
            .ok_or(SimError::Desync {
                pc,
                thread: members.lead(),
                context: "mispredict block with no just-fetched decode entry",
            })?
            .blocks_mask |= members.mask();
        Ok(())
    }

    /// Split a merged group whose members resolved a control transfer
    /// differently. `fallthrough` is `Some(pc + 1)` for conditional
    /// branches (so not-taken edges are not recorded in the FHB).
    fn diverge_members(
        &mut self,
        members: Itid,
        pc: u64,
        targets: &[(usize, u64)],
        predicted_next: u64,
        fallthrough: Option<u64>,
    ) -> Result<(), SimError> {
        // Partition members by their actual next PC (fixed buffers: at
        // most one part per member thread).
        let mut part_buf = [(0u64, 0u8); MAX_THREADS];
        let mut n_parts = 0;
        for &(t, next) in targets {
            match part_buf[..n_parts].iter_mut().find(|(pc, _)| *pc == next) {
                Some((_, mask)) => *mask |= 1 << t,
                None => {
                    part_buf[n_parts] = (next, 1 << t);
                    n_parts += 1;
                }
            }
        }
        let parts = &part_buf[..n_parts];
        debug_assert!(parts.len() >= 2);
        debug_assert_eq!(
            parts.iter().fold(0u8, |a, &(_, m)| a | m),
            members.mask(),
            "divergence parts must partition the group"
        );
        if self.cfg.level.shared_fetch() {
            let mut masks = [0u8; MAX_THREADS];
            for (i, &(_, m)) in parts.iter().enumerate() {
                masks[i] = m;
            }
            self.sync.diverge(&masks[..n_parts]);
            if self.obs.is_some() {
                self.emit(TraceEvent::Divergence {
                    pc,
                    mask: members.mask(),
                    parts: n_parts as u8,
                });
                // Threads split off alone leave MERGE; multi-thread parts
                // remain merged sub-groups and keep their mode.
                for &(_, m) in parts {
                    if m.count_ones() == 1 {
                        self.emit(TraceEvent::ModeTransition {
                            thread: m.trailing_zeros() as u8,
                            to: ModeTag::Detect,
                            trigger: ModeTrigger::Divergence,
                        });
                    }
                }
            }
        }
        let mut blocked_mask = 0u8;
        self.snapshot_pairs(members.mask());
        for &(next, mask) in parts {
            let part = Itid::from_mask(mask);
            for t in part.threads() {
                self.threads[t].branches_since_diverge = 0;
                if next != predicted_next {
                    self.stats.branch_mispredicts += 1;
                    blocked_mask |= 1 << t;
                }
            }
            // Taken diverging edges enter each thread's (fresh) FHB so
            // the other side can find the remerge point.
            if Some(next) != fallthrough {
                for t in part.threads() {
                    self.record_taken_branch(t, next);
                }
            }
        }
        if blocked_mask != 0 {
            self.block_members(Itid::from_mask(blocked_mask), pc)?;
        }
        Ok(())
    }

    /// Merge `a`'s and `b`'s groups and re-snapshot pair progress,
    /// emitting the implied mode transitions and a remerge event first.
    /// Wraps every [`FetchSync::merge`](mmt_frontend::FetchSync::merge)
    /// call site so the trace cannot drift from the sync state machine.
    fn merge_groups(&mut self, a: usize, b: usize, trigger: ModeTrigger) {
        if self.obs.is_some() {
            let union = self.sync.group_mask(a) | self.sync.group_mask(b);
            for t in 0..self.threads.len() {
                if union & (1 << t) != 0 && self.sync.mode(t) != SyncMode::Merge {
                    self.emit(TraceEvent::ModeTransition {
                        thread: t as u8,
                        to: ModeTag::Merge,
                        trigger,
                    });
                }
            }
            self.emit(TraceEvent::Remerge { mask: union });
        }
        let union = self.sync.merge(a, b);
        self.snapshot_pairs(union);
    }

    /// Emit the mode transitions a fetch halt of `t` implies, inspecting
    /// the sync state *before*
    /// [`FetchSync::force_detect`](mmt_frontend::FetchSync::force_detect)
    /// rewires it: the halting thread drops to DETECT, a sole surviving
    /// partner drops out of MERGE, and catch-ups chasing `t` are
    /// abandoned.
    fn emit_halt_transitions(&mut self, t: usize) {
        if self.obs.is_none() {
            return;
        }
        if self.sync.mode(t) != SyncMode::Detect {
            self.emit(TraceEvent::ModeTransition {
                thread: t as u8,
                to: ModeTag::Detect,
                trigger: ModeTrigger::Halt,
            });
        }
        let group = self.sync.group_mask(t);
        if group.count_ones() == 2 {
            let survivor = (group & !(1 << t)).trailing_zeros() as usize;
            self.emit(TraceEvent::ModeTransition {
                thread: survivor as u8,
                to: ModeTag::Detect,
                trigger: ModeTrigger::PartnerHalt,
            });
        }
        for u in 0..self.threads.len() {
            if self.sync.mode(u) == (SyncMode::Catchup { ahead: t }) {
                self.emit(TraceEvent::ModeTransition {
                    thread: u as u8,
                    to: ModeTag::Detect,
                    trigger: ModeTrigger::CatchupAbort,
                });
            }
        }
    }
}

enum FetchFlow {
    Continue,
    EndCycle,
}

/// Fetch the functional step record the front end is required to record
/// for every member thread it steps. Absence means the fetch group and
/// the per-member records went out of sync — a simulator bug reported as
/// [`SimError::Desync`] instead of a panic.
fn member_info<'a>(
    infos: &'a [Option<StepInfo>; MAX_THREADS],
    t: usize,
    pc: u64,
    context: &'static str,
) -> Result<&'a StepInfo, SimError> {
    infos[t].as_ref().ok_or(SimError::Desync {
        pc,
        thread: t,
        context,
    })
}
