//! `act-bench compare A.jsonl B.jsonl`: the paired-run rule over two sets
//! of run records (baseline A, candidate B), one row per (workload,
//! metric) pair. Also holds the small JSON reader the records and
//! `BENCHMARK.json` need.

use crate::metrics::def;
use crate::stats::{compare, Bound};
use std::collections::BTreeMap;

/// A parsed JSON value (just what the records use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.b.len() {
        return Err(format!("trailing characters at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    self.ws();
                    match self.b.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self
                    .b
                    .get(self.at)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.b[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(w.as_bytes()) {
            self.at += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            let c = *self.b.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(
                                self.b.get(self.at..self.at + 4).ok_or("bad \\u")?,
                            )
                            .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 sequence starting here.
                    let start = self.at - 1;
                    let len = match c {
                        0xF0..=0xFF => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    let end = (start + len).min(self.b.len());
                    out.push_str(&String::from_utf8_lossy(&self.b[start..end]));
                    self.at = end;
                }
            }
        }
    }
}

/// One run record, as `act-bench run --out` writes it.
#[derive(Debug)]
struct Run {
    /// The workload and the settings that change what a run measures
    /// (window, tracing, smoke): only runs of one group are compared.
    group: String,
    seed: u64,
    /// Input fingerprints: polygons, then points.
    inputs: (String, String),
    values: BTreeMap<String, f64>,
}

fn load(text: &str, path: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{path}:{}", i + 1);
        let rec = parse(line).map_err(|e| format!("{at}: {e}"))?;
        let field = |key: &str| rec.get(key).ok_or_else(|| format!("{at}: no {key}"));
        let text = |key: &str| -> Result<String, String> {
            Ok(field(key)?
                .str()
                .ok_or_else(|| format!("{at}: {key} is not a string"))?
                .to_string())
        };
        let number = |key: &str| field(key)?.num().ok_or_else(|| format!("{at}: bad {key}"));
        let flag = |key: &str| Ok::<_, String>(*field(key)? == Json::Bool(true));
        let fp = |key: &str| -> Result<String, String> {
            field("fingerprints")?
                .get(key)
                .and_then(Json::str)
                .map(str::to_string)
                .ok_or_else(|| format!("{at}: no {key} fingerprint"))
        };
        let mut group = format!("{}@{}s", text("workload")?, number("seconds")?);
        if flag("trace")? {
            group.push_str("+trace");
        }
        if flag("smoke")? {
            group.push_str("+smoke");
        }
        let mut values = BTreeMap::new();
        if let Some(Json::Obj(metrics)) = rec.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::num) {
                    values.insert(name.clone(), v);
                }
            }
        }
        runs.push(Run {
            group,
            seed: number("seed")? as u64,
            inputs: (fp("polygons")?, fp("points")?),
            values,
        });
    }
    Ok(runs)
}

/// Baseline and candidate values per (group, metric), paired by seed: the
/// k-th A run of a seed with the k-th B run of it, in seed order. Runs
/// without a partner are left out (and counted in the second value). A
/// pair whose input fingerprints differ is an error: a `datagen` change
/// makes a different workload, not a speed change.
#[allow(clippy::type_complexity)]
fn pair(
    a: &[Run],
    b: &[Run],
) -> Result<(BTreeMap<(String, String), (Vec<f64>, Vec<f64>)>, usize), String> {
    // (group, seed, occurrence) → position in the file.
    let index = |runs: &[Run]| {
        let mut seen = BTreeMap::<(&str, u64), usize>::new();
        runs.iter()
            .enumerate()
            .map(|(i, r)| {
                let k = seen.entry((r.group.as_str(), r.seed)).or_default();
                *k += 1;
                ((r.group.clone(), r.seed, *k), i)
            })
            .collect::<BTreeMap<_, _>>()
    };
    let (ia, ib) = (index(a), index(b));
    let mut out = BTreeMap::<(String, String), (Vec<f64>, Vec<f64>)>::new();
    let mut paired = 0;
    for (key, &i) in &ia {
        let Some(&j) = ib.get(key) else { continue };
        let (ra, rb) = (&a[i], &b[j]);
        if ra.inputs != rb.inputs {
            return Err(format!(
                "{} seed {}: input fingerprints differ (A polygons {} points {}, \
                 B polygons {} points {}), so A and B ran different workloads",
                ra.group, ra.seed, ra.inputs.0, ra.inputs.1, rb.inputs.0, rb.inputs.1
            ));
        }
        paired += 1;
        for (metric, &va) in &ra.values {
            if let Some(&vb) = rb.values.get(metric) {
                let e = out.entry((ra.group.clone(), metric.clone())).or_default();
                e.0.push(va);
                e.1.push(vb);
            }
        }
    }
    Ok((out, a.len() + b.len() - 2 * paired))
}

/// A value in at most five significant digits, scientific when large
/// or tiny, so rows line up whatever the metric's scale.
fn short(v: f64) -> String {
    if v != 0.0 && !(1e-2..1e5).contains(&v.abs()) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints the comparison table; the return value is the process exit
/// code (1 when any bounded metric regressed).
pub fn run(a_path: &str, b_path: &str) -> Result<i32, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let (a, b) = (load(&read(a_path)?, a_path)?, load(&read(b_path)?, b_path)?);
    let (pairs, unpaired) = pair(&a, &b)?;
    if unpaired > 0 {
        eprintln!("act-bench: {unpaired} runs have no partner of the same workload, settings and seed; left out");
    }
    println!(
        "{:<30} {:<34} {:>3} {:>34} {:>34} {:>5} {:>5} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "n",
        "A median [q1 q3]",
        "B median [q1 q3]",
        "B W/L",
        "bound",
        "B worse",
        "spread"
    );
    let mut tally = BTreeMap::<&str, usize>::new();
    for ((workload, metric), (va, vb)) in &pairs {
        let Some(d) = def(metric) else { continue };
        let bound = d.bound.unwrap_or(Bound::Relative(f64::INFINITY));
        let Some(c) = compare(va, vb, d.better, bound) else {
            continue;
        };
        let (bound_txt, worse_txt) = match d.bound {
            Some(Bound::Relative(r)) => (
                format!("{:.0}%", r * 100.0),
                format!("{:+.1}%", c.worse_by * 100.0),
            ),
            Some(Bound::Absolute(x)) => (format!("{x}"), format!("{:+.3}", c.worse_by)),
            None => ("-".to_string(), format!("{:+.1}%", c.worse_by * 100.0)),
        };
        let verdict = if d.bound.is_some() {
            c.verdict.name()
        } else {
            "(no bound)"
        };
        *tally.entry(verdict).or_default() += 1;
        let side = |m: f64, q: [f64; 3]| format!("{} [{} {}]", short(m), short(q[0]), short(q[2]));
        println!(
            "{workload:<30} {metric:<34} {:>3} {:>34} {:>34} {:>5} {bound_txt:>5} {worse_txt:>8} {:>6.1}%  {verdict}",
            c.pairs,
            side(c.median_a, c.quartiles_a),
            side(c.median_b, c.quartiles_b),
            format!("{}/{}", c.wins, c.losses),
            c.spread * 100.0
        );
    }
    let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("summary: {}", summary.join(", "));
    Ok(i32::from(tally.contains_key("worse")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_records_and_escapes() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"yé"}, "d": {}} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::str),
            Some("x\"yé")
        );
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,").is_err());
    }

    fn rec(workload: &str, seed: u64, smoke: bool, points_fp: &str, v: f64) -> String {
        format!(
            r#"{{"workload":"{workload}","seed":{seed},"seconds":12,"trace":false,"smoke":{smoke},"fingerprints":{{"polygons":"aa","points":"{points_fp}"}},"correct":true,"attempted":9,"failed":0,"metrics":{{"setup_s":{{"value":{v},"unit":"s"}}}}}}"#
        )
    }

    #[test]
    fn runs_pair_by_seed_within_one_workload_and_settings() {
        let a = [
            rec("serve-census", 1, false, "p1", 1.0),
            rec("serve-census", 2, false, "p2", 2.0),
            rec("serve-census", 2, true, "p2", 9.0),
            rec("serve-census", 3, false, "p3", 3.0),
        ]
        .join("\n");
        // Another order, a repeated seed and a smoke run with no partner.
        let b = [
            rec("serve-census", 3, false, "p3", 30.0),
            rec("serve-census", 1, false, "p1", 10.0),
            rec("serve-census", 1, false, "p1", 11.0),
            rec("serve-census", 2, false, "p2", 20.0),
            rec("serve-census", 4, true, "p4", 40.0),
        ]
        .join("\n");
        let (pairs, unpaired) = pair(&load(&a, "A").unwrap(), &load(&b, "B").unwrap()).unwrap();
        assert_eq!(unpaired, 3);
        let key = ("serve-census@12s".to_string(), "setup_s".to_string());
        assert_eq!(pairs[&key], (vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]));
        assert_eq!(pairs.len(), 1, "smoke runs form a group of their own");
    }

    #[test]
    fn runs_with_other_inputs_are_refused() {
        let a = rec("join-census", 5, false, "p5", 1.0);
        let b = rec("join-census", 5, false, "changed", 1.0);
        let err = pair(&load(&a, "A").unwrap(), &load(&b, "B").unwrap()).unwrap_err();
        assert!(err.contains("fingerprints differ"), "{err}");
        let polygons = a.replace(r#""polygons":"aa""#, r#""polygons":"bb""#);
        assert!(pair(&load(&a, "A").unwrap(), &load(&polygons, "B").unwrap()).is_err());
    }
}
