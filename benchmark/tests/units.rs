//! The benchmark's own arithmetic: order statistics, span self time,
//! and failure accounting.

use mmtbench::run::{check, run_job, Tally};
use mmtbench::spans::{self_times, Recorder, Span};
use mmtbench::stats::{median, quartiles};
use mmtbench::workloads::{Mode, Workload};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    // Expected values from `statistics.quantiles(xs, n=4)`.
    let cases: [(&[f64], (f64, f64)); 5] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 8.25),
        ),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 4.5)),
        (&[1.0, 2.0], (0.75, 2.25)),
        (&[2.5, 0.5, 1.25, 9.0], (0.6875, 7.375)),
        (&[4.0], (4.0, 4.0)),
    ];
    for (xs, (q1, q3)) in cases {
        let (a, b) = quartiles(xs);
        assert!(
            close(a, q1) && close(b, q3),
            "{xs:?}: ({a}, {b}) != ({q1}, {q3})"
        );
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let span = |name, parent, start_ns, end_ns| Span {
        name,
        parent,
        start_ns,
        end_ns,
    };
    let tree = [
        span("pass", None, 0, 100),
        span("job", Some(0), 10, 90),
        span("core.step", Some(1), 20, 60),
        span("check.ffwd", Some(1), 60, 85),
        span("ffwd.run", Some(3), 62, 80),
        span("job", Some(0), 90, 100),
    ];
    let st = self_times(&tree);
    let ns = |name| st[name] * 1e9;
    assert!(close(ns("pass"), 10.0), "pass {}", ns("pass"));
    // 80 - 40 - 25 in the first job, all 10 of the second.
    assert!(close(ns("job"), 25.0), "job {}", ns("job"));
    assert!(close(ns("core.step"), 40.0));
    assert!(close(ns("check.ffwd"), 7.0));
    assert!(close(ns("ffwd.run"), 18.0));
    let total: f64 = st.values().sum();
    assert!(close(total * 1e9, 100.0), "self times partition the root");
}

#[test]
fn recorded_spans_nest_and_export_as_a_valid_chrome_trace() {
    let mut rec = Recorder::new();
    let pass = rec.open("pass");
    for _ in 0..2 {
        let job = rec.open("job");
        rec.timed("core.step", || std::hint::black_box(1 + 1));
        let check = rec.open("check.ffwd");
        // Left open, as a panic would leave it: closing the job
        // closes it too.
        let _ = check;
        rec.close(job);
    }
    rec.close(pass);
    let spans = rec.spans();
    assert_eq!(spans.len(), 7);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[3].parent, Some(1));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    let summary = mmt_obs::chrome::validate_chrome_trace(&rec.chrome_json())
        .expect("well-formed Chrome trace");
    assert_eq!(summary.span_pairs, 7);
}

#[test]
fn a_wrong_expected_output_counts_as_a_failure() {
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    for workload in [Workload::Lockstep, Workload::Sampled] {
        let job = &workload.jobs()[0];
        let out = run_job(job, 0, 64, false, &mut rec).expect("job runs");
        assert_eq!(check(&out), Ok(()), "{}", job.label());
        assert!(tally.record(&job.label(), Ok(out.clone())).is_some());

        let mut wrong = out;
        match job.mode {
            Mode::Detailed => wrong.reference.digest ^= 1,
            Mode::Sampled => wrong.reference.insts += 1,
        }
        assert!(check(&wrong).is_err());
        assert!(tally.record(&job.label(), Ok(wrong)).is_none());
    }
    assert_eq!(tally.attempted, 4);
    assert_eq!(tally.failed(), 2);
    assert_eq!(tally.error_rate(), 0.5);
    assert!(tally.record("err", Err("boom".into())).is_none());
    assert_eq!(tally.failed(), 3);
}
