//! The two output lines: settings and sample counts, then the result.

use crate::run::Outcome;
use ocelotl::format::Json;

fn obj(fields: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Obj(fields.into_iter().collect())
}

fn int(n: usize) -> Json {
    Json::Int(n as i64)
}

/// The line before the result: what the numbers depend on, and how many
/// samples each metric summarizes.
pub fn settings_line(o: &Outcome) -> String {
    let settings = o.settings.iter().map(|(k, v)| (k.to_string(), v.clone()));
    let operations = o.samples.iter().map(|&(k, n)| (k.to_string(), int(n)));
    let samples = o.metrics.iter().map(|m| {
        let mut fields = vec![("samples".to_string(), int(m.samples))];
        if let Some(p) = m.percentile {
            fields.push(("percentile".to_string(), Json::Float(p)));
        }
        (m.name.to_string(), Json::Obj(fields))
    });
    obj([
        ("settings".to_string(), obj(settings)),
        ("operations".to_string(), obj(operations)),
        ("metric_samples".to_string(), obj(samples)),
    ])
    .encode()
}

/// The last line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics = o.metrics.iter().map(|m| {
        let unit = crate::metrics::find(m.name).map_or("", |d| d.unit);
        let value = obj([
            ("value".to_string(), Json::Float(m.value)),
            ("unit".to_string(), Json::Str(unit.to_string())),
        ]);
        (m.name.to_string(), value)
    });
    obj([
        ("correct".to_string(), Json::Bool(o.correct)),
        ("attempted".to_string(), int(o.attempted)),
        ("failed".to_string(), int(o.failed)),
        ("metrics".to_string(), obj(metrics)),
    ])
    .encode()
}
