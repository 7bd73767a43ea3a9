//! `mem` (DESIGN.md §13): the static memory divergence analysis, race
//! list and LVIP brackets against two dynamic oracles — the golden's
//! per-PC profile and a functional round-robin interleaving of
//! [`Machine`] steps that records every (word, thread, pc) memory touch.
//! Violations: divergent addresses at an invariant PC, an address
//! outside its per-thread range or shared across a tid-private PC, a
//! dynamic conflicting pair missing from the race list, and LVIP
//! activity outside the static prediction.

use super::{lvip_violations, sharing_label, status_cell, violations_of, Case, Golden, Verdict};
use mmt_analysis::{
    predict_lvip_with, AccessClass, MemDepAnalysis, Stack, ValueFlowAnalysis, ValueFlowOptions,
};
use mmt_isa::interp::{Machine, Memory};
use mmt_isa::{Inst, MemSharing, Program};
use std::collections::{BTreeSet, HashMap};

/// Per-thread functional-run step budget: suite apps at the default
/// scale retire well under a million instructions per thread, so hitting
/// this means the interleaving livelocked — itself a reportable failure.
const STEP_BUDGET: u64 = 100_000_000;

/// One case's comparison, as `results/BENCH_memdep.json` records it.
#[derive(Debug, Clone)]
pub(super) struct Row {
    app: String,
    threads: usize,
    sharing: String,
    accesses: usize,
    invariant: usize,
    tid_private: usize,
    shared: usize,
    static_races: usize,
    static_race_errors: usize,
    lvip_predictable: usize,
    mem_merged: u64,
    mem_addr_diverged: u64,
    lvip_lookups: u64,
    lvip_hits: u64,
    lvip_misses: u64,
    dynamic_conflict_pairs: usize,
    functional_steps: u64,
    sim_cycles: u64,
    soundness_violations: Vec<String>,
}
mmt_obs::impl_to_json! {
    Row {
        app, threads, sharing, accesses, invariant, tid_private, shared, static_races,
        static_race_errors, lvip_predictable, mem_merged, mem_addr_diverged, lvip_lookups,
        lvip_hits, lvip_misses, dynamic_conflict_pairs, functional_steps, sim_cycles,
        soundness_violations
    }
}

struct Report {
    scale: u64,
    rows: Vec<Row>,
}
mmt_obs::impl_to_json! { Report { scale, rows } }

/// What the functional interleaving observed at one (pc, thread).
#[derive(Debug, Clone, Default)]
struct PcThreadObs {
    addrs: BTreeSet<u64>,
    count: u64,
    /// FNV-1a over the address sequence, order-sensitive.
    seq_hash: u64,
}

impl PcThreadObs {
    fn record(&mut self, addr: u64) {
        self.addrs.insert(addr);
        self.count += 1;
        let mut h = if self.count == 1 {
            0xcbf2_9ce4_8422_2325u64
        } else {
            self.seq_hash
        };
        for b in addr.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.seq_hash = h;
    }
}

/// Compare one case's static memory classification with its golden's
/// per-PC profile and with a functional interleaving of its instance.
pub(super) fn check(case: &Case, golden: &Golden, stack: &Stack<'_>) -> Row {
    let (program, sharing, threads) = (stack.program(), case.instance.sharing, case.threads);
    let mem = MemDepAnalysis::from_stack(stack, sharing);
    let vf = ValueFlowAnalysis::from_stack(stack, sharing, ValueFlowOptions::default());
    let lvip_pred = predict_lvip_with(program, sharing, &vf);
    let (invariant, tid_private, shared) = mem.class_counts();
    let mut violations = Vec::new();

    // Dynamic side 1: the cycle-level pipeline's per-PC profile.
    let result = &golden.result;
    let mut mem_merged = 0u64;
    let mut mem_addr_diverged = 0u64;
    let (mut lvip_lookups, mut lvip_hits, mut lvip_misses) = (0u64, 0u64, 0u64);
    for (pc, c) in result.stats.pc_profile.iter().enumerate() {
        let pc = pc as u64;
        mem_merged += c.mem_merged;
        mem_addr_diverged += c.mem_addr_diverged;
        lvip_lookups += c.lvip_lookups;
        lvip_hits += c.lvip_hits;
        lvip_misses += c.lvip_misses;

        if c.mem_addr_diverged > 0 {
            match mem.access_at(pc).map(|a| a.class) {
                Some(AccessClass::Invariant) => violations.push(format!(
                    "pc {pc} statically invariant but {} of {} merged macro-ops had \
                     divergent addresses",
                    c.mem_addr_diverged, c.mem_merged
                )),
                None => violations.push(format!(
                    "pc {pc} had merged memory dispatches but no static access record"
                )),
                Some(_) => {}
            }
        }

        violations.extend(lvip_violations(pc, c, &lvip_pred, "static"));
    }

    // Dynamic side 2: functional round-robin interleaving.
    let (obs, touches, functional_steps) = functional_run(
        program,
        sharing,
        threads,
        case.instance.memories.clone(),
        &mut violations,
    );

    // Invariant / tid-private checks against the functional observations.
    for a in mem.accesses() {
        let per_thread: Vec<&PcThreadObs> = (0..threads)
            .map(|t| obs.get(&(a.pc, t)).unwrap_or(&EMPTY_OBS))
            .collect();
        // Range containment holds for every class that has a range.
        for (t, o) in per_thread.iter().enumerate() {
            if let Some((lo, hi)) = a.thread_range(t) {
                if let Some(&bad) = o.addrs.iter().find(|&&x| x < lo || x > hi) {
                    violations.push(format!(
                        "pc {} thread {t}: observed address {bad} outside static range \
                         [{lo}, {hi}] (class {})",
                        a.pc, a.class
                    ));
                }
            }
        }
        match a.class {
            AccessClass::Invariant => {
                let lead = per_thread[0];
                let seq_equal = per_thread
                    .iter()
                    .all(|o| (o.count, o.seq_hash) == (lead.count, lead.seq_hash));
                if !seq_equal {
                    let union: BTreeSet<u64> = per_thread
                        .iter()
                        .flat_map(|o| o.addrs.iter().copied())
                        .collect();
                    if union.len() > 1 {
                        violations.push(format!(
                            "pc {} statically invariant but threads observed {} distinct \
                             addresses with unequal sequences",
                            a.pc,
                            union.len()
                        ));
                    }
                }
            }
            AccessClass::TidPrivate { .. } => {
                // Bounded per-thread ranges are provably disjoint; check
                // the observed sets agree. (Unbounded-residue private
                // accesses are only instant-disjoint, not set-disjoint,
                // so they are covered by the range check above alone.)
                if (0..threads).all(|t| a.thread_range(t).is_some()) {
                    for t in 0..threads {
                        for u in t + 1..threads {
                            if let Some(&x) = per_thread[t]
                                .addrs
                                .intersection(&per_thread[u].addrs)
                                .next()
                            {
                                violations.push(format!(
                                    "pc {} statically tid-private but threads {t} and {u} \
                                     both touched word {x}",
                                    a.pc
                                ));
                            }
                        }
                    }
                }
            }
            AccessClass::Shared { .. } => {}
        }
    }

    // Race completeness (shared memory only): every dynamic conflicting
    // pair must be in the static race list.
    let mut dynamic_pairs: BTreeSet<(u64, u64, bool)> = BTreeSet::new();
    if sharing == MemSharing::Shared {
        let static_pairs: BTreeSet<(u64, u64, bool)> = mem
            .races()
            .iter()
            .map(|r| (r.store_pc, r.other_pc, r.other_is_store))
            .collect();
        for accessors in touches.values() {
            for &(t, spc, s_store) in accessors {
                if !s_store {
                    continue;
                }
                for &(u, opc, o_store) in accessors {
                    if u == t {
                        continue;
                    }
                    let key = if o_store {
                        (spc.min(opc), spc.max(opc), true)
                    } else {
                        (spc, opc, false)
                    };
                    if dynamic_pairs.insert(key) && !static_pairs.contains(&key) {
                        violations.push(format!(
                            "dynamic {} conflict (pcs {} and {}) missing from the static \
                             race list — race-lint false negative",
                            if key.2 { "store-store" } else { "store-load" },
                            key.0,
                            key.1
                        ));
                    }
                }
            }
        }
    }

    Row {
        app: case.app.name.to_string(),
        threads,
        sharing: sharing_label(sharing),
        accesses: mem.accesses().len(),
        invariant,
        tid_private,
        shared,
        static_races: mem.races().len(),
        static_race_errors: mem.races().iter().filter(|r| r.other_is_store).count(),
        lvip_predictable: lvip_pred.predictable_count(),
        mem_merged,
        mem_addr_diverged,
        lvip_lookups,
        lvip_hits,
        lvip_misses,
        dynamic_conflict_pairs: dynamic_pairs.len(),
        functional_steps,
        sim_cycles: result.stats.cycles,
        soundness_violations: violations,
    }
}

static EMPTY_OBS: PcThreadObs = PcThreadObs {
    addrs: BTreeSet::new(),
    count: 0,
    seq_hash: 0,
};

type TouchMap = HashMap<u64, Vec<(usize, u64, bool)>>;

/// Execute the program functionally, one step per live thread per round
/// (a fair interleaving), recording per-(pc, thread) address
/// observations and per-word accessor lists.
fn functional_run(
    program: &Program,
    sharing: MemSharing,
    threads: usize,
    mut memories: Vec<Memory>,
    violations: &mut Vec<String>,
) -> (HashMap<(u64, usize), PcThreadObs>, TouchMap, u64) {
    let mut machines: Vec<Machine> = (0..threads).map(Machine::new).collect();
    let mut obs: HashMap<(u64, usize), PcThreadObs> = HashMap::new();
    let mut touches: TouchMap = HashMap::new();
    let mut steps = 0u64;
    let budget = STEP_BUDGET * threads as u64;
    while machines.iter().any(|m| !m.halted()) {
        if steps >= budget {
            violations.push(format!(
                "functional interleaving exceeded {budget} steps without halting"
            ));
            break;
        }
        for (t, m) in machines.iter_mut().enumerate() {
            if m.halted() {
                continue;
            }
            let mem = match sharing {
                MemSharing::Shared => &mut memories[0],
                MemSharing::PerThread => &mut memories[t],
            };
            let info = m.step(program, mem).expect("suite programs execute");
            steps += 1;
            if let Some(addr) = info.mem_addr {
                obs.entry((info.pc, t)).or_default().record(addr);
                let is_store = matches!(info.inst, Inst::St { .. });
                let list = touches.entry(addr).or_default();
                if !list.contains(&(t, info.pc, is_store)) {
                    list.push((t, info.pc, is_store));
                }
            }
        }
    }
    (obs, touches, steps)
}

/// Print the table and hand the rows to the epilogue.
pub(super) fn finish(rows: impl Iterator<Item = Row>, scale: u64) -> Verdict {
    let rows: Vec<Row> = rows.collect();
    println!("## mmtmem — static memory classification vs. dynamic addresses (scale {scale})\n");
    println!(
        "| app | t | mem | classes (inv/priv/shared) | races (ww/total) | lvip pred | \
         merged/diverged | lvip l/h/m | dyn pairs | soundness |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {}/{}/{} | {}/{} | {} | {}/{} | {}/{}/{} | {} | {} |",
            r.app,
            r.threads,
            r.sharing,
            r.invariant,
            r.tid_private,
            r.shared,
            r.static_race_errors,
            r.static_races,
            r.lvip_predictable,
            r.mem_merged,
            r.mem_addr_diverged,
            r.lvip_lookups,
            r.lvip_hits,
            r.lvip_misses,
            r.dynamic_conflict_pairs,
            status_cell(&r.soundness_violations),
        );
    }
    println!();
    Verdict {
        violations: rows
            .iter()
            .flat_map(|r| violations_of(&r.app, r.threads, &r.soundness_violations))
            .collect(),
        sim_cycles: rows.iter().map(|r| r.sim_cycles).sum(),
        report: Box::new(Report { scale, rows }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_workloads::app_by_name;

    #[test]
    fn divergent_addresses_at_an_invariant_pc_are_a_violation() {
        let case = Case::new(&app_by_name("ammp").unwrap(), 2, crate::SMOKE_SCALE);
        let mut golden = case.golden(true, false).unwrap();
        let stack = Stack::new(&case.instance.program);
        assert_eq!(
            check(&case, &golden, &stack).soundness_violations,
            Vec::<String>::new()
        );

        let mem = MemDepAnalysis::from_stack(&stack, case.instance.sharing);
        let pc = mem
            .accesses()
            .iter()
            .find(|a| a.class == AccessClass::Invariant)
            .expect("ammp has an invariant access")
            .pc;
        let c = &mut golden.result.stats.pc_profile[pc as usize];
        c.mem_merged += 1;
        c.mem_addr_diverged += 1;
        let row = check(&case, &golden, &stack);
        assert!(
            row.soundness_violations
                .iter()
                .any(|v| v.starts_with(&format!("pc {pc} statically invariant"))
                    && v.ends_with("had divergent addresses")),
            "{:?}",
            row.soundness_violations
        );
    }
}
