//! Checkpointable architectural state (the two-speed simulation contract).
//!
//! [`ArchState`] captures exactly the state both execution modes agree on:
//! per-thread registers, PCs, halt flags, retired counts, the data memory
//! images, and (optionally) the warm contents of the trainable predictor
//! structures that survive a mode switch — the RST sharing vectors and
//! the LVIP mismatch table. Because the detailed model executes
//! functionally at fetch (the oracle-functional design: `Machine::step`
//! runs when a macro-op is fetched and all later stages are timing-only),
//! the machines and memories at any cycle boundary *are* the
//! fetch-boundary architectural state, and a snapshot taken from the
//! detailed model can seed the fast-forward executor and vice versa.
//!
//! Serialization is a self-describing JSON document (format tag
//! `mmt-archstate-v1`). All `u64` payloads are encoded as decimal
//! *strings*: the workspace's vendored JSON reader keeps numbers as `f64`,
//! which silently rounds integers above 2^53, and register values
//! routinely use all 64 bits. Memory images are stored sparsely as
//! `[address, value]` pairs of non-zero words.

use crate::config::SimConfig;
use mmt_isa::interp::{Machine, Memory};
use mmt_isa::reg::NUM_REGS;
use mmt_isa::MemSharing;
use mmt_obs::json::{self, Value};

/// 64-bit FNV-1a, the workspace's standard state-digest hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Copy a memory into an allocation of the same capacity, so a run
/// continuing on the copy does not reallocate where the original would
/// not have (`Memory::clone` allocates to fit the backed words).
pub(crate) fn copy_keeping_capacity(m: &Memory) -> Memory {
    let mut words = Vec::with_capacity(m.capacity());
    words.extend_from_slice(m.words());
    Memory::from_words(m.id(), m.limit(), words)
}

/// A complete architectural checkpoint, plus optional warm predictor
/// state, handed between the detailed and fast-forward execution modes.
///
/// `cycle` and `config_digest` are provenance: the detailed-model cycle
/// count at capture time (0 for fast-forward captures, which have no
/// cycle clock) and an FNV digest of the capturing [`SimConfig`] so a
/// resume under a different configuration can be rejected loudly.
/// Neither participates in [`ArchState::digest`], which hashes only the
/// mode-independent architectural core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Detailed-model cycle at capture (informational).
    pub cycle: u64,
    /// [`config_digest`] of the capturing configuration.
    pub config_digest: u64,
    /// Thread-to-memory relationship of the workload.
    pub sharing: MemSharing,
    /// Per-thread contexts, indexed by tid.
    pub threads: Vec<Machine>,
    /// Data memories (one shared, or one per thread).
    pub memories: Vec<Memory>,
    /// Warm RST sharing vectors `(shared_mask, by_merge_mask)` per
    /// architected register, when captured from a detailed run.
    pub rst: Option<[(u8, u8); NUM_REGS]>,
    /// Warm LVIP table contents (slot -> remembered mismatching PC),
    /// when captured from a detailed run.
    pub lvip: Option<Vec<Option<u64>>>,
}

/// Fingerprint of the timing model: the FNV-1a of the golden digests in
/// `crates/core/tests/equivalence.rs`, which asserts the two agree. A
/// change that moves any simulated result re-captures those goldens and
/// must bump this constant with them; result caches keyed by it
/// (`mmtfigs --resume-dir`) then miss instead of serving statistics of
/// the old model.
pub const MODEL_DIGEST: u64 = 0xa111_c935_b54f_faee;

/// The most LVIP slots [`ArchState::from_json`] accepts: 256 times the
/// paper's 4096-entry table (16 MiB of slots).
pub const MAX_LVIP_ENTRIES: usize = 1 << 20;

/// The most words [`ArchState::from_json`] backs per memory image: the
/// limit of every memory the workloads build
/// ([`mmt_isa::interp::DEFAULT_MEM_LIMIT`] words, 32 MiB).
pub const MAX_IMAGE_WORDS: u64 = mmt_isa::interp::DEFAULT_MEM_LIMIT;

/// Digest a configuration for checkpoint provenance checks.
///
/// The observation-only fields (`record_pc_profile`, `record_merge_log`,
/// `trace`, `metrics`) change no simulated state, so they are digested
/// at their defaults: recording a run does not change its provenance.
pub fn config_digest(cfg: &SimConfig) -> u64 {
    let cfg = SimConfig {
        record_pc_profile: false,
        record_merge_log: false,
        trace: None,
        metrics: false,
        ..cfg.clone()
    };
    let mut h = Fnv::new();
    h.put_bytes(format!("{cfg:?}").as_bytes());
    h.finish()
}

impl ArchState {
    /// The reset-state checkpoint for a workload: all registers zero,
    /// PCs at 0, empty memories. `memory_ids` carries one id per memory
    /// (a single shared memory, or one per thread).
    pub fn initial(
        threads: usize,
        sharing: MemSharing,
        memory_ids: &[usize],
        mem_limit: u64,
    ) -> ArchState {
        ArchState {
            cycle: 0,
            config_digest: 0,
            sharing,
            threads: (0..threads).map(Machine::new).collect(),
            memories: memory_ids
                .iter()
                .map(|&id| Memory::with_limit(id, mem_limit))
                .collect(),
            rst: None,
            lvip: None,
        }
    }

    /// The memory index thread `tid` accesses.
    pub fn mem_index(&self, tid: usize) -> usize {
        match self.sharing {
            MemSharing::Shared => 0,
            MemSharing::PerThread => tid,
        }
    }

    /// True when every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.threads.iter().all(Machine::halted)
    }

    /// Total dynamic instructions executed across all threads.
    pub fn total_retired(&self) -> u64 {
        self.threads.iter().map(Machine::retired).sum()
    }

    /// FNV-1a digest of the mode-independent architectural core:
    /// per-thread registers/PC/halt/retired and the memory images with
    /// trailing zeros trimmed (a dense image and a never-touched tail
    /// are architecturally the same memory). Excludes `cycle`,
    /// `config_digest`, and warm predictor state — two executions agree
    /// architecturally iff their digests match.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.put_core(&mut h, false);
        h.finish()
    }

    /// FNV-1a digest of *every* field — provenance (`cycle`,
    /// `config_digest`, `sharing`) and warm predictor state included —
    /// unlike [`ArchState::digest`], which deliberately hashes only the
    /// mode-independent architectural core. This is the
    /// corruption-detection digest: [`ArchState::to_json`] embeds it as
    /// the `"integrity"` field and [`ArchState::from_json`] refuses any
    /// document whose content no longer hashes to its claim, so a
    /// truncated or bit-flipped checkpoint cannot load silently.
    pub fn integrity_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.put_u64(self.cycle);
        h.put_u64(self.config_digest);
        h.put_u64(match self.sharing {
            MemSharing::Shared => 0,
            MemSharing::PerThread => 1,
        });
        self.put_core(&mut h, true);
        match &self.rst {
            None => h.put_u64(0),
            Some(rst) => {
                h.put_u64(1);
                for &(s, b) in rst.iter() {
                    h.put_bytes(&[s, b]);
                }
            }
        }
        match &self.lvip {
            None => h.put_u64(0),
            Some(table) => {
                h.put_u64(1);
                h.put_u64(table.len() as u64);
                for (slot, pc) in table.iter().enumerate() {
                    if let Some(pc) = pc {
                        h.put_u64(slot as u64);
                        h.put_u64(*pc);
                    }
                }
            }
        }
        h.finish()
    }

    /// Absorb the architectural core both digests hash: per-thread
    /// tid/registers/PC/halt/retired, then each memory's id (and limit,
    /// when `with_limit`) and its image with trailing zeros trimmed (a
    /// dense image and a never-touched tail are architecturally the same
    /// memory, and the sparse JSON encoding cannot represent the
    /// difference).
    fn put_core(&self, h: &mut Fnv, with_limit: bool) {
        h.put_u64(self.threads.len() as u64);
        for t in &self.threads {
            h.put_u64(t.tid() as u64);
            for &r in t.regs() {
                h.put_u64(r);
            }
            h.put_u64(t.pc());
            h.put_u64(t.halted() as u64);
            h.put_u64(t.retired());
        }
        h.put_u64(self.memories.len() as u64);
        for m in &self.memories {
            h.put_u64(m.id() as u64);
            if with_limit {
                h.put_u64(m.limit());
            }
            let words = m.words();
            let trimmed = &words[..words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1)];
            h.put_u64(trimmed.len() as u64);
            for &w in trimmed {
                h.put_u64(w);
            }
        }
    }

    /// Serialize to the `mmt-archstate-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"format\": \"mmt-archstate-v1\",\n");
        out.push_str(&format!("  \"cycle\": \"{}\",\n", self.cycle));
        out.push_str(&format!(
            "  \"config_digest\": \"{}\",\n",
            self.config_digest
        ));
        out.push_str(&format!(
            "  \"sharing\": \"{}\",\n",
            match self.sharing {
                MemSharing::Shared => "shared",
                MemSharing::PerThread => "per-thread",
            }
        ));
        out.push_str("  \"threads\": [\n");
        for (i, t) in self.threads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"tid\": {}, \"pc\": \"{}\", \"halted\": {}, \"retired\": \"{}\", \"regs\": [",
                t.tid(),
                t.pc(),
                t.halted(),
                t.retired()
            ));
            for (j, r) in t.regs().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{r}\""));
            }
            out.push_str("]}");
            if i + 1 < self.threads.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"memories\": [\n");
        for (i, m) in self.memories.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"limit\": \"{}\", \"words\": [",
                m.id(),
                m.limit()
            ));
            let mut first = true;
            for (addr, &w) in m.words().iter().enumerate() {
                if w == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("[\"{addr}\", \"{w}\"]"));
            }
            out.push_str("]}");
            if i + 1 < self.memories.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
        if let Some(rst) = &self.rst {
            out.push_str(",\n  \"rst\": [");
            for (i, &(s, b)) in rst.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{s}, {b}]"));
            }
            out.push(']');
        }
        if let Some(lvip) = &self.lvip {
            out.push_str(&format!(
                ",\n  \"lvip_entries\": {},\n  \"lvip\": [",
                lvip.len()
            ));
            let mut first = true;
            for (slot, pc) in lvip.iter().enumerate() {
                let Some(pc) = pc else { continue };
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("[{slot}, \"{pc}\"]"));
            }
            out.push(']');
        }
        out.push_str(&format!(
            ",\n  \"integrity\": \"{}\"\n}}\n",
            self.integrity_digest()
        ));
        out
    }

    /// Parse an `mmt-archstate-v1` JSON document.
    ///
    /// Every size the document states is bounded before anything is
    /// allocated, because the integrity digest can only be checked once
    /// the state is built: an LVIP table must be a power of two (as
    /// `Lvip::new` requires) of at most [`MAX_LVIP_ENTRIES`] slots, and a
    /// memory word address must lie below both its memory's `limit` and
    /// [`MAX_IMAGE_WORDS`]. No workload's checkpoint comes near either
    /// bound, and a crafted document cannot make the parser allocate
    /// more.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem
    /// (parse failure, wrong format tag, missing or mistyped field, a
    /// size out of bounds).
    pub fn from_json(text: &str) -> Result<ArchState, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let format = root
            .get("format")
            .and_then(Value::as_str)
            .ok_or("missing \"format\" tag")?;
        if format != "mmt-archstate-v1" {
            return Err(format!("unsupported checkpoint format {format:?}"));
        }
        let cycle = get_u64(&root, "cycle")?;
        let config_digest = get_u64(&root, "config_digest")?;
        let sharing = match root.get("sharing").and_then(Value::as_str) {
            Some("shared") => MemSharing::Shared,
            Some("per-thread") => MemSharing::PerThread,
            other => return Err(format!("bad \"sharing\" value {other:?}")),
        };

        let mut threads = Vec::new();
        for (i, t) in arr(&root, "threads")?.iter().enumerate() {
            let tid = get_u64(t, "tid")? as usize;
            let pc = get_u64(t, "pc")?;
            let halted = match t.get("halted") {
                Some(Value::Bool(b)) => *b,
                _ => return Err(format!("thread {i}: missing \"halted\" bool")),
            };
            let retired = get_u64(t, "retired")?;
            let regs_json = t
                .get("regs")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("thread {i}: missing \"regs\" array"))?;
            if regs_json.len() != NUM_REGS {
                return Err(format!(
                    "thread {i}: expected {NUM_REGS} registers, got {}",
                    regs_json.len()
                ));
            }
            let mut regs = [0u64; NUM_REGS];
            for (r, v) in regs.iter_mut().zip(regs_json) {
                *r = val_u64(v).ok_or_else(|| format!("thread {i}: bad register value"))?;
            }
            // `from_parts` zeroes r0, so a flipped r0 would otherwise
            // load as the intact state and pass the integrity check.
            if regs[0] != 0 {
                return Err(format!("thread {i}: r0 holds {}, not 0", regs[0]));
            }
            threads.push(Machine::from_parts(tid, regs, pc, halted, retired));
        }

        let mut memories = Vec::new();
        for (i, m) in arr(&root, "memories")?.iter().enumerate() {
            let id = get_u64(m, "id")? as usize;
            let limit = get_u64(m, "limit")?;
            let mut words = Vec::new();
            for pair in m
                .get("words")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("memory {i}: missing \"words\" array"))?
            {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("memory {i}: malformed [addr, value] pair"))?;
                let addr =
                    val_u64(&pair[0]).ok_or_else(|| format!("memory {i}: bad word address"))?;
                let value =
                    val_u64(&pair[1]).ok_or_else(|| format!("memory {i}: bad word value"))?;
                if addr >= limit.min(MAX_IMAGE_WORDS) {
                    return Err(format!(
                        "memory {i}: address {addr} exceeds limit {}",
                        limit.min(MAX_IMAGE_WORDS)
                    ));
                }
                let a = addr as usize;
                if a >= words.len() {
                    words.resize(a + 1, 0);
                }
                words[a] = value;
            }
            memories.push(Memory::from_words(id, limit, words));
        }

        let rst = match root.get("rst") {
            None => None,
            Some(v) => {
                let pairs = v.as_array().ok_or("\"rst\" is not an array")?;
                if pairs.len() != NUM_REGS {
                    return Err(format!(
                        "\"rst\": expected {NUM_REGS} entries, got {}",
                        pairs.len()
                    ));
                }
                let mut out = [(0u8, 0u8); NUM_REGS];
                for (o, p) in out.iter_mut().zip(pairs) {
                    let p = p
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or("\"rst\": malformed [shared, by_merge] pair")?;
                    let s = val_u64(&p[0]).ok_or("\"rst\": bad mask")?;
                    let b = val_u64(&p[1]).ok_or("\"rst\": bad mask")?;
                    if s > u8::MAX as u64 || b > u8::MAX as u64 {
                        return Err("\"rst\": mask exceeds u8".into());
                    }
                    *o = (s as u8, b as u8);
                }
                Some(out)
            }
        };

        let lvip = match root.get("lvip") {
            None => None,
            Some(v) => {
                let size = get_u64(&root, "lvip_entries")?;
                if !size.is_power_of_two() || size > MAX_LVIP_ENTRIES as u64 {
                    return Err(format!(
                        "\"lvip_entries\": {size} is not a power of two up to {MAX_LVIP_ENTRIES}"
                    ));
                }
                let size = size as usize;
                let mut table = vec![None; size];
                for pair in v.as_array().ok_or("\"lvip\" is not an array")? {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or("\"lvip\": malformed [slot, pc] pair")?;
                    let slot = val_u64(&pair[0]).ok_or("\"lvip\": bad slot")? as usize;
                    let pc = val_u64(&pair[1]).ok_or("\"lvip\": bad pc")?;
                    if slot >= size {
                        return Err(format!("\"lvip\": slot {slot} exceeds table size {size}"));
                    }
                    table[slot] = Some(pc);
                }
                Some(table)
            }
        };

        let claimed = get_u64(&root, "integrity").map_err(|_| {
            "missing or malformed \"integrity\" digest (truncated or pre-integrity checkpoint?)"
                .to_string()
        })?;
        let state = ArchState {
            cycle,
            config_digest,
            sharing,
            threads,
            memories,
            rst,
            lvip,
        };
        let actual = state.integrity_digest();
        if claimed != actual {
            return Err(format!(
                "integrity digest mismatch: document claims {claimed} but content hashes to \
                 {actual} — the checkpoint is corrupt"
            ));
        }
        Ok(state)
    }
}

/// A `u64` from a JSON value: a decimal string (lossless, preferred) or
/// a small non-negative integer number.
fn val_u64(v: &Value) -> Option<u64> {
    match v {
        Value::String(s) => s.parse().ok(),
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
        _ => None,
    }
}

fn get_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(val_u64)
        .ok_or_else(|| format!("missing or malformed \"{key}\""))
}

fn arr<'a>(obj: &'a Value, key: &str) -> Result<&'a [Value], String> {
    obj.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing \"{key}\" array"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_isa::Reg;

    fn sample_state() -> ArchState {
        let mut s = ArchState::initial(2, MemSharing::PerThread, &[0, 1], 1 << 20);
        s.cycle = 1234;
        s.config_digest = 0xdead_beef;
        let mut regs = [0u64; NUM_REGS];
        regs[1] = u64::MAX;
        regs[31] = 0x8000_0000_0000_0001;
        s.threads[0] = Machine::from_parts(0, regs, 42, false, 99);
        s.threads[1] = Machine::from_parts(1, [0; NUM_REGS], 0, true, 0);
        s.memories[0].store(7, u64::MAX - 1).unwrap();
        s.memories[1].store(0, 5).unwrap();
        s.rst = Some({
            let mut r = [(0u8, 0u8); NUM_REGS];
            r[3] = (0b0011, 0b0010);
            r
        });
        s.lvip = Some({
            let mut t = vec![None; 16];
            t[5] = Some(0xffff_ffff_ffff_fff5);
            t
        });
        s
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample_state();
        let back = ArchState::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.digest(), back.digest());
    }

    #[test]
    fn digest_ignores_trailing_zero_words() {
        let mut a = sample_state();
        let b = a.clone();
        a.memories[0].store(499, 0).unwrap(); // same memory, padded image
        assert_eq!(a.digest(), b.digest());
        a.memories[0].store(400, 1).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn config_digest_ignores_observation_only_fields() {
        let plain = SimConfig::paper();
        let base = config_digest(&plain);
        type Toggle = (&'static str, fn(&mut SimConfig));
        let toggles: [Toggle; 4] = [
            ("record_pc_profile", |c| c.record_pc_profile = true),
            ("record_merge_log", |c| c.record_merge_log = true),
            ("trace", |c| c.trace = Some(mmt_obs::TraceConfig::default())),
            ("metrics", |c| c.metrics = true),
        ];
        for (name, toggle) in toggles {
            let mut cfg = plain.clone();
            toggle(&mut cfg);
            assert_eq!(config_digest(&cfg), base, "{name} moved the digest");
        }
        let mut timing = plain;
        timing.rob_size += 1;
        assert_ne!(config_digest(&timing), base, "a timing field must move it");
    }

    #[test]
    fn digest_ignores_provenance_and_warm_state() {
        let mut a = sample_state();
        let b = a.clone();
        a.cycle += 1;
        a.config_digest ^= 1;
        a.rst = None;
        a.lvip = None;
        assert_eq!(a.digest(), b.digest());
        a.threads[0].set_reg(Reg::R2, 1);
        assert_ne!(a.digest(), b.digest());
    }

    /// A machine rebuilt from its checkpoint document evolves exactly
    /// like the original: one more step lands both on the same state.
    #[test]
    fn machine_round_trip() {
        let mut b = mmt_isa::asm::Builder::new();
        b.addi(Reg::R7, Reg::R7, 1);
        b.halt();
        let prog = b.build().unwrap();
        let mut s = sample_state();
        s.threads[0].set_pc(0);
        let mut back = ArchState::from_json(&s.to_json()).unwrap();
        for state in [&mut s, &mut back] {
            state.threads[0]
                .step(&prog, &mut state.memories[0])
                .unwrap();
        }
        assert_eq!(s.threads[0], back.threads[0]);
        assert_eq!(back.threads[0].reg(Reg::R7), 1);
    }

    #[test]
    fn memory_copy_keeps_capacity() {
        let mut m = Memory::with_limit(3, 10);
        m.store(1, 42).unwrap();
        let mut grown = Memory::from_words(3, 10, Vec::with_capacity(8));
        grown.store(1, 42).unwrap();
        let copy = copy_keeping_capacity(&grown);
        assert_eq!(copy, m);
        assert_eq!(copy.capacity(), grown.capacity());
        assert!(copy.capacity() >= 8);
    }

    /// `Machine::from_parts` zeroes r0, so a document claiming a non-zero
    /// r0 would load as a different state than it describes.
    #[test]
    fn nonzero_r0_is_refused() {
        let json = sample_state().to_json();
        let regs = "\"regs\": [\"0\"";
        let at = json.find(regs).unwrap() + regs.len() - 2;
        let bad = format!("{}1{}", &json[..at], &json[at + 1..]);
        assert!(ArchState::from_json(&bad).unwrap_err().contains("r0"));
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(ArchState::from_json("{}").is_err());
        assert!(ArchState::from_json("not json").is_err());
        let wrong_tag = "{\"format\": \"mmt-archstate-v9\"}";
        assert!(ArchState::from_json(wrong_tag)
            .unwrap_err()
            .contains("unsupported"));
    }

    #[test]
    fn integrity_digest_covers_every_field() {
        let s = sample_state();
        let base = s.integrity_digest();
        let mutations: Vec<ArchState> = vec![
            {
                let mut a = s.clone();
                a.cycle ^= 1;
                a
            },
            {
                let mut a = s.clone();
                a.config_digest ^= 1;
                a
            },
            {
                let mut a = s.clone();
                a.sharing = MemSharing::Shared;
                a
            },
            {
                let mut a = s.clone();
                a.threads[1].set_reg(Reg::R5, 1);
                a
            },
            {
                let mut a = s.clone();
                a.memories[0].store(3, 7).unwrap();
                a
            },
            {
                let mut a = s.clone();
                a.rst.as_mut().unwrap()[4].0 ^= 1;
                a
            },
            {
                let mut a = s.clone();
                a.lvip.as_mut().unwrap()[2] = Some(9);
                a
            },
            {
                let mut a = s.clone();
                a.rst = None;
                a
            },
        ];
        for (i, m) in mutations.iter().enumerate() {
            assert_ne!(
                m.integrity_digest(),
                base,
                "mutation {i} was invisible to the integrity digest"
            );
        }
    }

    #[test]
    fn missing_integrity_is_rejected() {
        let s = sample_state();
        let json = s.to_json();
        // Strip the integrity field: a well-formed document without it
        // (a hand-edited or pre-integrity file) must be refused.
        let at = json.find(",\n  \"integrity\"").unwrap();
        let stripped = format!("{}\n}}\n", &json[..at]);
        assert!(ArchState::from_json(&stripped)
            .unwrap_err()
            .contains("integrity"));
    }

    #[test]
    fn every_single_bit_flip_is_caught_or_masked() {
        let s = sample_state();
        let json = s.to_json();
        // Flip one bit at every byte offset (cycling through the bit
        // positions). Each corrupt document must either be rejected or —
        // when the flip is semantically neutral, e.g. whitespace — load
        // back to *exactly* the original state. Nothing may load
        // differently and quietly: that would be silent corruption.
        for offset in 0..json.len() {
            let bit = (offset % 8) as u8;
            let mut corrupt = json.clone().into_bytes();
            assert!(crate::inject::flip_byte(&mut corrupt, offset, bit));
            let text = String::from_utf8_lossy(&corrupt);
            if let Ok(loaded) = ArchState::from_json(&text) {
                assert_eq!(
                    loaded, s,
                    "flip at byte {offset} bit {bit} loaded a different state"
                );
            }
        }
    }

    #[test]
    fn truncated_documents_are_rejected() {
        let s = sample_state();
        let json = s.to_json();
        // Every strict prefix that removes actual content must fail: the
        // integrity field is serialized last, so truncation always costs
        // at least part of it. (Sampled stride keeps the test fast.)
        for len in (0..json.len().saturating_sub(2)).step_by(7) {
            assert!(
                ArchState::from_json(&json[..len]).is_err(),
                "prefix of {len} bytes was accepted"
            );
        }
    }
}
