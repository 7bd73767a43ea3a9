//! The four workloads and the jobs each one runs.
//!
//! They vary the two input properties the simulator's cost depends on:
//! how far the threads diverge (which decides how much work the MMT
//! mechanisms do) and how large the working set is next to the caches.
//! For each MMT mechanism one workload exercises it and one bypasses
//! it, so a gain in one layer cannot hide a loss in another.

use mmt_bench::to_run_spec;
use mmt_sim::{MmtLevel, RunSpec, SimConfig};
use mmt_workloads::{all_apps, app_by_name, App};

/// A named set of jobs the benchmark runs as one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 5 grid: 16 apps × {2,4} threads × {Base, MMT-FXR}.
    Suite,
    /// The paper's Limit bars: identical instances, 4 threads, MMT-FXR.
    Lockstep,
    /// mcf and canneal with their working sets far above shrunk caches.
    Membound,
    /// The two-speed path: SMARTS-style sampled runs of the suite.
    Sampled,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Suite,
        Workload::Lockstep,
        Workload::Membound,
        Workload::Sampled,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Lockstep => "lockstep",
            Workload::Membound => "membound",
            Workload::Sampled => "sampled",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the benchmark runs this workload.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Suite => {
                "the fig5 grid across the whole redundancy spectrum; its Base half \
                 bypasses every MMT mechanism"
            }
            Workload::Lockstep => {
                "Limit runs never diverge: sync, FHB, split and register merging \
                 idle while merged dispatch and the LVIP work"
            }
            Workload::Membound => {
                "working set far above the caches: issue and the memory hierarchy \
                 dominate"
            }
            Workload::Sampled => "the two-speed path: fast-forward, handoff and detailed windows",
        }
    }

    /// The jobs of one pass.
    pub fn jobs(self) -> Vec<Job> {
        let detailed = |app: &App, threads, level, input, scale| Job {
            app: app.clone(),
            cfg: SimConfig::paper_with(threads, level),
            input,
            mode: Mode::Detailed,
            scale,
        };
        let apps = all_apps();
        let mut jobs = Vec::new();
        match self {
            Workload::Suite => {
                for app in &apps {
                    for threads in [2, 4] {
                        for level in [MmtLevel::Base, MmtLevel::Fxr] {
                            jobs.push(detailed(app, threads, level, Input::Native, 4));
                        }
                    }
                }
            }
            Workload::Lockstep => {
                for app in &apps {
                    jobs.push(detailed(app, 4, MmtLevel::Fxr, Input::Limit, 2));
                }
            }
            Workload::Membound => {
                for name in ["mcf", "canneal"] {
                    let app = app_by_name(name).expect("suite app");
                    for threads in [2, 4] {
                        for level in [MmtLevel::Base, MmtLevel::Fxr] {
                            let mut job = detailed(&app, threads, level, Input::Native, 1);
                            // Same associativity and latency, an eighth
                            // of the capacity the working sets need.
                            job.cfg.hierarchy.l1d.size_bytes = 4 * 1024;
                            job.cfg.hierarchy.l2.size_bytes = 32 * 1024;
                            jobs.push(job);
                        }
                    }
                }
            }
            Workload::Sampled => {
                for app in &apps {
                    for threads in [2, 4] {
                        let mut job = detailed(app, threads, MmtLevel::Fxr, Input::Native, 2);
                        job.mode = Mode::Sampled;
                        jobs.push(job);
                    }
                }
            }
        }
        jobs
    }
}

/// Which inputs a job's threads get.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Input {
    /// The app's own inputs (`App::instance*`).
    Native,
    /// Identical instances with identical inputs (`App::limit_instance`).
    Limit,
}

/// How a job is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every cycle in the detailed model.
    Detailed,
    /// `run_sampled` with the default `SampleConfig`.
    Sampled,
}

/// One simulation: an app, a machine and a size.
#[derive(Debug, Clone)]
pub struct Job {
    /// The app.
    pub app: App,
    /// The machine (threads, MMT level, cache hierarchy).
    pub cfg: SimConfig,
    /// Native or Limit inputs.
    pub input: Input,
    /// Detailed or sampled.
    pub mode: Mode,
    /// Iteration divisor at full benchmark size.
    pub scale: u64,
}

impl Job {
    /// Short label, e.g. `ammp/2T/MMT-FXR`.
    pub fn label(&self) -> String {
        let limit = match self.input {
            Input::Native => "",
            Input::Limit => "-limit",
        };
        format!(
            "{}{limit}/{}T/{}",
            self.app.name, self.cfg.threads, self.cfg.level
        )
    }

    /// Generate the job's inputs. Seed 0 is the app's calibrated data
    /// (the inputs behind the committed figures); any other seed
    /// reseeds the data the way `App::instance_with_input` does.
    pub fn instance(&self, seed: u64, scale: u64) -> RunSpec {
        let threads = self.cfg.threads;
        let w = match (self.input, seed) {
            (Input::Native, 0) => self.app.instance(threads, scale),
            (Input::Native, s) => self.app.instance_with_input(threads, scale, s),
            (Input::Limit, 0) => self.app.limit_instance(threads, scale),
            (Input::Limit, s) => {
                // `limit_instance` takes no input id; apply the same
                // reseeding `instance_with_input` does.
                let mut app = self.app.clone();
                app.spec.seed = app.spec.seed.wrapping_mul(0x9e37_79b9).wrapping_add(s);
                app.limit_instance(threads, scale)
            }
        };
        to_run_spec(w)
    }
}
