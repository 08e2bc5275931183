//! `BENCHMARK.json` at the repository root declares exactly the metrics
//! the benchmark prints, with the same units.

use perfbench::report::{END_TO_END, PER_LAYER};

/// `(name, unit)` of every entry in the JSON array under `key`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, name: &str| -> String {
        let at = entry
            .find(&format!("\"{name}\": \""))
            .expect("field present")
            + name.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("value closes")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (key, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let expected: Vec<(String, String)> = printed
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, key), expected, "{key} differs");
    }
}
