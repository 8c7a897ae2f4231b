// Line-level lint of a Prometheus text exposition, shared by the job
// exposition's test (tests/telemetry.rs) and the coordinator's
// (crates/cluster/src/coordinator.rs): `#[path]`-mounted or `include!`d,
// so no `//!` docs and no `use` lines here.

/// Every sample line must parse as `name[{labels}] value` with quoted,
/// escaped label values, every series must be TYPE-declared exactly once
/// and *before* its first sample, and TYPE kinds must be legal. Returns
/// the declared family names.
pub fn lint_exposition(text: &str) -> std::collections::BTreeSet<String> {
    assert!(text.ends_with('\n'), "exposition must end with a newline");
    let mut declared: std::collections::BTreeMap<String, usize> = Default::default();
    let mut sampled: std::collections::BTreeSet<String> = Default::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE without name").to_string();
            let kind = it.next().expect("TYPE without kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary" | "histogram"),
                "illegal TYPE {kind:?} for {name}"
            );
            assert!(it.next().is_none(), "trailing tokens in {line:?}");
            assert!(!sampled.contains(&name), "{name}: TYPE declared after first sample");
            *declared.entry(name).or_default() += 1;
        } else if !line.starts_with('#') && !line.is_empty() {
            let (series, value) = line.rsplit_once(' ').expect("sample line needs a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("unparsable value in {line:?}"));
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name:?}"
            );
            if let Some(idx) = series.find('{') {
                assert!(series.ends_with('}'), "unterminated label block in {line:?}");
                for pair in series[idx + 1..series.len() - 1].split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').expect("label must be k=\"v\"");
                    assert!(k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "unquoted label value in {line:?}"
                    );
                    let bare = v[1..v.len() - 1].replace("\\\\", "").replace("\\\"", "");
                    assert!(
                        !bare.replace("\\n", "").contains(['"', '\\']),
                        "unescaped label value in {line:?}"
                    );
                }
            }
            // Summaries sample through name_sum / name_count companions.
            let base = if declared.contains_key(name) {
                name
            } else {
                name.strip_suffix("_sum").or_else(|| name.strip_suffix("_count")).unwrap_or(name)
            };
            assert!(declared.contains_key(base), "{name}: sample without a TYPE declaration");
            sampled.insert(base.to_string());
        }
    }
    for (name, count) in &declared {
        assert_eq!(*count, 1, "{name}: TYPE declared {count} times");
    }
    declared.into_keys().collect()
}
