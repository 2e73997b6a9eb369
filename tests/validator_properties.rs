//! The artifact validators are what `promcheck` runs on files it did not
//! write: they must never panic — on arbitrary bytes, or on a real
//! artifact with one line damaged — and every rejection must name the
//! line (CSV: data row) it is about.

use odlb::telemetry::{
    validate_csv, validate_folded, validate_prometheus, SpanProfiler, Telemetry,
};
use odlb_bench::experiments::{fig3, Observers};
use odlb_testkit::{check, Gen};
use std::sync::OnceLock;

type Validator = fn(&str) -> Result<(), String>;

const VALIDATORS: [(&str, Validator); 3] = [
    ("prom", |text| validate_prometheus(text).map(drop)),
    ("csv", |text| validate_csv(text).map(drop)),
    ("folded", |text| validate_folded(text).map(drop)),
];

/// A real render of each artifact (a scaled-down fig3), in
/// [`VALIDATORS`] order.
fn artifacts() -> &'static [String; 3] {
    static ARTIFACTS: OnceLock<[String; 3]> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let telemetry = Telemetry::attached();
        let profiler = SpanProfiler::shared();
        let observers = Observers {
            telemetry: telemetry.clone(),
            profiler: Some(profiler.clone()),
            ..Default::default()
        };
        fig3::run_observed(&observers, 6, 2, 20, 150, 2);
        let folded = profiler.borrow().folded_sim();
        [
            telemetry.render_prometheus().expect("attached"),
            telemetry.render_csv().expect("attached"),
            folded,
        ]
    })
}

/// A rejection starts `line N: ` or `row N: `.
fn names_a_line(err: &str) -> bool {
    let rest = err.strip_prefix("line ").or(err.strip_prefix("row "));
    rest.and_then(|r| r.split_once(": "))
        .is_some_and(|(n, _)| n.parse::<usize>().is_ok())
}

fn assert_total(validate: Validator, what: &str, text: &str) {
    if let Err(e) = validate(text) {
        assert!(names_a_line(&e), "{what}: error without a line: {e}");
    }
}

#[test]
fn real_artifacts_validate() {
    for ((what, validate), text) in VALIDATORS.iter().zip(artifacts()) {
        validate(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// Prometheus rejects a label name given twice; so do registration and
/// both validators.
#[test]
fn duplicate_label_names_are_rejected() {
    let prom = "# HELP x X.\n# TYPE x gauge\nx{app=\"a0\",app=\"a1\"} 1\n";
    let err = validate_prometheus(prom).unwrap_err();
    assert!(err.starts_with("line 3: label 'app' repeated"), "{err}");
    let csv = "time_s,seq,metric,labels,value\n1.0,0,x,app=a0;app=a1,1\n";
    assert_eq!(
        validate_csv(csv).unwrap_err(),
        "row 1: label 'app' repeated"
    );
    let labels = [("app", "a0"), ("app", "a1")];
    assert!(std::panic::catch_unwind(|| Telemetry::attached().gauge("x", "X.", &labels)).is_err());
}

#[test]
fn validators_never_panic_on_arbitrary_bytes() {
    // Half the cases draw from the formats' own alphabet, so braces,
    // quotes and separators meet in every order.
    const ALPHABET: &[u8] = b"{}\"=,; \n#_+.-019aelINF";
    check("validators_arbitrary_bytes", 512, |g: &mut Gen| {
        let structured = g.chance(0.5);
        let bytes = g.vec_of(0, 120, |g| {
            if structured {
                ALPHABET[g.usize_in(0, ALPHABET.len())]
            } else {
                g.u32_in(0, 256) as u8
            }
        });
        let text = String::from_utf8_lossy(&bytes);
        for (what, validate) in VALIDATORS {
            assert_total(validate, what, &text);
        }
    });
}

#[test]
fn validators_never_panic_on_a_damaged_artifact() {
    check("validators_damaged_artifact", 48, |g: &mut Gen| {
        for ((what, validate), text) in VALIDATORS.iter().zip(artifacts()) {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let at = g.usize_in(0, lines.len());
            let line = lines[at].clone();
            match g.usize_in(0, 4) {
                0 if !line.is_empty() => {
                    let mut bytes = line.into_bytes();
                    let i = g.usize_in(0, bytes.len());
                    bytes[i] = g.u32_in(0, 256) as u8;
                    lines[at] = String::from_utf8_lossy(&bytes).into_owned();
                }
                1 => lines[at].truncate(g.usize_in(0, line.len() + 1)),
                2 => {
                    let swapped = line.chars().map(|c| match c {
                        '{' => '}',
                        '}' => '{',
                        c => c,
                    });
                    lines[at] = swapped.collect();
                }
                _ => lines.insert(at, line),
            }
            assert_total(*validate, what, &(lines.join("\n") + "\n"));
        }
    });
}
