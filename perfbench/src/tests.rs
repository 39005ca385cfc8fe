use super::METRICS;
use crate::workloads::{self, Ctx, Scale, Tally, Workload};

/// The string value of `"key": "..."` in a flat JSON object.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\""))?;
    let rest = &obj[at + key.len() + 2..];
    let open = rest.find('"')? + 1;
    let close = open + rest[open..].find('"')?;
    Some(&rest[open..close])
}

/// `(name, unit)` of every object in the JSON array under `key`.
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split('}')
        .filter_map(|obj| {
            Some((
                field(obj, "name")?.to_owned(),
                field(obj, "unit")?.to_owned(),
            ))
        })
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
        let listed = entries(&json, key);
        let ours: Vec<(String, String)> = METRICS
            .iter()
            .filter(|m| m.2 == end_to_end)
            .map(|m| (m.0.to_owned(), m.1.to_owned()))
            .collect();
        assert_eq!(listed, ours, "{key} metrics differ from BENCHMARK.json");
    }
    let workloads = entries_named(&json, "workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn entries_named(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split('}')
        .filter_map(|obj| field(obj, "name").map(str::to_owned))
        .collect()
}

/// Small enough to run unoptimized.
const SMALL: Scale = Scale {
    serve_requests: 2_000,
    serve_traced_requests: 200,
    plans_per_pass: 1,
    plan_requests: 400,
};

fn fingerprint(w: Workload, seed: u64) -> u64 {
    let mut ctx = Ctx::new();
    let mut state = workloads::setup(w, &mut ctx, &mut Tally::new()).expect("set-up succeeds");
    let out = workloads::pass(&mut state, seed, SMALL, &mut ctx);
    assert_eq!(ctx.failed(), 0, "{}: {:?}", w.name(), ctx.failures());
    out.fingerprint
}

#[test]
fn fingerprint_repeats_for_a_seed_and_moves_with_it() {
    for w in Workload::ALL {
        let a = fingerprint(w, 1);
        assert_eq!(
            a,
            fingerprint(w, 1),
            "{}: same seed, same outputs",
            w.name()
        );
        assert_ne!(
            a,
            fingerprint(w, 2),
            "{}: another seed, other outputs",
            w.name()
        );
    }
}

#[test]
fn offline_grid_holds_the_configurations_that_build() {
    let mut ctx = Ctx::new();
    let mut tally = Tally::new();
    workloads::setup(Workload::OfflineGrid, &mut ctx, &mut tally).expect("set-up succeeds");
    assert_eq!(tally["server.builds"], 240.0 + 6.0);
    assert_eq!(tally["grid.configs"], 195.0);
}

#[test]
fn derived_seeds_differ_by_salt_and_seed() {
    assert_ne!(workloads::derive(1, 1), workloads::derive(1, 2));
    assert_ne!(workloads::derive(1, 1), workloads::derive(2, 1));
}
