//! End-to-end tests of the `pi` command-line binary.

use std::process::Command;

fn pi(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pi"))
        .args(args)
        .output()
        .expect("pi binary runs")
}

#[test]
fn delay_command_reports_plan_and_delay() {
    let out = pi(&["delay", "--tech", "65nm", "--length", "5mm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("65nm 5 mm SS"));
    assert!(text.contains("delay"));
    assert!(text.contains("ps"));
}

#[test]
fn delay_accepts_explicit_plan() {
    let out = pi(&[
        "delay", "--tech", "90nm", "--length", "3mm", "--count", "4", "--drive", "16",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 x inverter"));
}

#[test]
fn reach_staggered_exceeds_plain() {
    let parse_mm = |out: std::process::Output| -> f64 {
        let text = String::from_utf8_lossy(&out.stdout);
        let tail = text.split("link ").nth(1).expect("reach line");
        tail.split_whitespace()
            .next()
            .expect("value")
            .parse()
            .expect("number")
    };
    let plain = parse_mm(pi(&["reach", "--tech", "45nm", "--clock", "3GHz"]));
    let staggered = parse_mm(pi(&[
        "reach",
        "--tech",
        "45nm",
        "--clock",
        "3GHz",
        "--staggered",
    ]));
    assert!(staggered > plain, "{staggered} vs {plain}");
}

#[test]
fn noc_runs_on_a_user_spec_file() {
    let dir = std::env::temp_dir().join("pi_cli_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("soc.txt");
    std::fs::write(
        &path,
        "design T\ndie 10 10\nwidth 64\ncore a 1 1\ncore b 8 8\nflow a b 12\n",
    )
    .expect("write spec");
    let out = pi(&[
        "noc",
        "--spec",
        path.to_str().expect("utf8 path"),
        "--tech",
        "65nm",
        "--clock",
        "2GHz",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T / proposed model"));
    assert!(text.contains("dynamic"));
}

#[test]
fn report_full_includes_signoff() {
    let out = pi(&[
        "report", "--tech", "65nm", "--length", "4mm", "--clock", "2GHz", "--full",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("timing"));
    assert!(text.contains("signoff"));
    assert!(text.contains("yield"));
}

#[test]
fn bad_arguments_fail_with_messages() {
    let out = pi(&["delay", "--tech", "7nm", "--length", "5mm"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown technology node"));

    let out = pi(&["delay", "--tech", "65nm"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --length"));

    let out = pi(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // The retired coalescing-window knob fails before anything binds.
    let out = pi(&["serve", "--port", "0", "--batch-window", "500"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--batch-window`"));

    let out = pi(&[]);
    assert!(!out.status.success());
}

#[test]
fn obs_jsonl_journal_validates_and_renders() {
    let dir = std::env::temp_dir().join("pi_cli_obs_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let journal = dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&journal);
    let journal_str = journal.to_str().expect("utf8 path");

    // The traced run lasts ~300 µs, so on a loaded single-core host one
    // scheduler preemption between probes can push the wall-clock
    // accounting outside the --check tolerance. Retry the whole
    // trace-and-check sequence: a real accounting bug fails every
    // attempt; scheduler noise does not.
    let mut checked = None;
    for _ in 0..5 {
        let _ = std::fs::remove_file(&journal);
        let out = Command::new(env!("CARGO_BIN_EXE_pi"))
            .args(["delay", "--tech", "65nm", "--length", "5mm"])
            .env("PI_OBS", format!("jsonl:{journal_str}"))
            .output()
            .expect("pi binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&journal).expect("journal written");
        assert!(text.contains("\"type\":\"meta\""), "{text}");
        assert!(text.contains("\"name\":\"pi.delay\""), "{text}");
        assert!(text.contains("\"type\":\"finish\""), "{text}");

        // --check validates every line plus the wall-clock accounting bound.
        let out = pi(&["obs-report", journal_str, "--check"]);
        let ok = out.status.success();
        checked = Some(out);
        if ok {
            break;
        }
    }
    let out = checked.expect("at least one attempt ran");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // Default mode renders the span tree and metric tables.
    let out = pi(&["obs-report", journal_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pi.delay"), "{text}");
    assert!(text.contains("wall clock"), "{text}");

    // Missing file and missing path argument both fail with a message.
    let out = pi(&["obs-report", "/nonexistent/trace.jsonl"]);
    assert!(!out.status.success());
    let out = pi(&["obs-report"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("obs-report"));
}

#[test]
fn yield_command_reports_distribution_and_yield() {
    let out = pi(&[
        "yield",
        "--tech",
        "65nm",
        "--length",
        "8mm",
        "--deadline",
        "600ps",
        "--samples",
        "500",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("500 samples"));
    assert!(text.contains("timing yield @ 600 ps"));
}

#[test]
fn yield_command_exposes_the_estimator_family() {
    for estimator in ["sobol-scrambled", "importance", "analytic"] {
        let out = pi(&[
            "yield",
            "--tech",
            "65nm",
            "--length",
            "8mm",
            "--deadline",
            "600ps",
            "--estimator",
            estimator,
        ]);
        assert!(
            out.status.success(),
            "{estimator}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&format!("estimator {estimator}")), "{text}");
        assert!(text.contains("line evaluations"), "{text}");
    }

    let out = pi(&[
        "yield",
        "--tech",
        "65nm",
        "--length",
        "8mm",
        "--deadline",
        "600ps",
        "--estimator",
        "bogus",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown estimator"));
}
