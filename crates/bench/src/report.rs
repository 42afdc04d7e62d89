//! The one report writer of the bench binaries.
//!
//! Every gated bench ends the same way: an ordered JSON document — a few
//! header fields, the `phase_medians` tree [`crate::gate`] compares, named
//! sections of rows — goes to `BENCH_<name>.json` in the working
//! directory, the `TRACE_OUT` / `METRICS_OUT` exports are flushed, and
//! the process exits 0, 1 (a check the bench asserts failed) or 2 (the
//! report could not be written — the gate step that follows must not
//! read a stale file and pass).

use obs::json::{escape, escape_into, num};
use std::fmt::Display;
use std::process::ExitCode;

enum Val {
    /// A rendered JSON scalar.
    Scalar(String),
    Obj(Obj),
    Rows(Vec<Obj>),
}

/// A JSON object under construction; members keep insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Val)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn with(mut self, key: impl Into<String>, val: Val) -> Self {
        self.0.push((key.into(), val));
        self
    }

    /// A string member.
    pub fn text(self, key: impl Into<String>, v: &str) -> Self {
        self.with(key, Val::Scalar(escape(v)))
    }

    /// A boolean member.
    pub fn flag(self, key: impl Into<String>, v: bool) -> Self {
        self.with(key, Val::Scalar(v.to_string()))
    }

    /// An integer member.
    pub fn int(self, key: impl Into<String>, v: u64) -> Self {
        self.with(key, Val::Scalar(v.to_string()))
    }

    /// A float member at its shortest round-trip form.
    pub fn num(self, key: impl Into<String>, v: f64) -> Self {
        self.with(key, Val::Scalar(num(v)))
    }

    /// A float member at a fixed number of decimals (non-finite values
    /// degrade to 0, as [`obs::json::num`] does).
    pub fn fixed(self, key: impl Into<String>, v: f64, decimals: usize) -> Self {
        let text = if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            num(v)
        };
        self.with(key, Val::Scalar(text))
    }

    /// A nested object.
    pub fn obj(self, key: impl Into<String>, v: Obj) -> Self {
        self.with(key, Val::Obj(v))
    }

    /// An array of objects.
    pub fn rows(self, key: impl Into<String>, v: Vec<Obj>) -> Self {
        self.with(key, Val::Rows(v))
    }

    /// Objects holding scalars only go on one line; one that holds an
    /// object or rows puts each member on its own.
    fn write(&self, out: &mut String, indent: usize) {
        let leaf = self.0.iter().all(|(_, v)| matches!(v, Val::Scalar(_)));
        let newline = |out: &mut String, n: usize| {
            out.push('\n');
            out.push_str(&" ".repeat(n));
        };
        out.push('{');
        for (i, (key, val)) in self.0.iter().enumerate() {
            match (i, leaf) {
                (0, true) => {}
                (_, true) => out.push_str(", "),
                (0, false) => newline(out, indent + 2),
                (_, false) => {
                    out.push(',');
                    newline(out, indent + 2);
                }
            }
            escape_into(out, key);
            out.push_str(": ");
            match val {
                Val::Scalar(s) => out.push_str(s),
                Val::Obj(o) => o.write(out, indent + 2),
                Val::Rows(rows) => {
                    out.push('[');
                    for (ri, row) in rows.iter().enumerate() {
                        if ri > 0 {
                            out.push(',');
                        }
                        newline(out, indent + 4);
                        row.write(out, indent + 4);
                    }
                    if !rows.is_empty() {
                        newline(out, indent + 2);
                    }
                    out.push(']');
                }
            }
        }
        if !leaf {
            newline(out, indent);
        }
        out.push('}');
    }

    /// The document text, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }
}

/// One bench's report: its name, and the checks it has failed so far.
pub struct Report {
    name: &'static str,
    failed: usize,
}

impl Report {
    /// The report that will be written to `BENCH_<name>.json`.
    pub fn new(name: &'static str) -> Self {
        Self { name, failed: 0 }
    }

    /// Record a failed check (printed to stderr at once; the bench runs
    /// on so the report still shows every number).
    pub fn fail(&mut self, why: impl Display) {
        eprintln!("error: {}: {why}", self.name);
        self.failed += 1;
    }

    /// The leaf object of a set of violation counters (gated at baseline
    /// 0); every non-zero one is a failed check.
    pub fn violations(&mut self, scope: &str, counters: &[(&str, f64)]) -> Obj {
        counters.iter().fold(Obj::new(), |leaves, &(what, count)| {
            if count > 0.0 {
                self.fail(format_args!("{scope}: {what} = {count}"));
            }
            leaves.fixed(what, count, 1)
        })
    }

    /// Write `{"bench": <name>, …body}` and the observability exports,
    /// and return the process's exit code.
    pub fn finish(self, body: Obj) -> ExitCode {
        let mut doc = Obj::new().text("bench", self.name);
        doc.0.extend(body.0);
        let path = format!("BENCH_{}.json", self.name);
        let written = std::fs::write(&path, doc.render());
        crate::obsenv::write_exports();
        match written {
            Err(e) => {
                eprintln!("error: {}: cannot write {path}: {e}", self.name);
                ExitCode::from(2)
            }
            Ok(()) => {
                println!("wrote {path}");
                if self.failed > 0 {
                    eprintln!("error: {}: {} check(s) failed", self.name, self.failed);
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;
    use obs::json::{parse, Value};

    fn to_obj(v: &Value) -> Obj {
        let members = v.as_obj().expect("an object");
        members.iter().fold(Obj::new(), |o, (k, v)| match v {
            Value::Str(s) => o.text(k, s),
            Value::Bool(b) => o.flag(k, *b),
            Value::Num(n) => o.num(k, *n),
            Value::Obj(_) => o.obj(k, to_obj(v)),
            Value::Arr(rows) => o.rows(k, rows.iter().map(to_obj).collect()),
            Value::Null => panic!("no bench writes null ({k})"),
        })
    }

    /// The committed report of each of the eight benches — its real rows,
    /// medians tree and header — pushed through the writer: every value
    /// survives, and the result gates against itself exactly.
    #[test]
    fn every_bench_report_survives_the_writer_and_gates_against_itself() {
        for name in [
            "throughput",
            "hotpath",
            "cpusimd",
            "grouped_seeding",
            "gapped_gpu",
            "cold_start",
            "cluster_scaling",
            "serve_load",
        ] {
            let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
            let committed = std::fs::read_to_string(&path).expect(&path);
            let doc = parse(&committed).expect(&path);
            assert_eq!(doc.get("bench").and_then(Value::as_str), Some(name));
            let text = to_obj(&doc).render();
            assert_eq!(parse(&text).as_ref(), Ok(&doc), "{name}");
            let c = gate::compare(&text, &text, 0.0).expect(name);
            assert!(
                c.passed() && !c.rows.is_empty() && c.new_phases.is_empty(),
                "{name}"
            );
        }
    }

    #[test]
    fn layout_is_ordered_and_parses_back() {
        let doc = Obj::new()
            .text("bench", "t \"q\"")
            .num("scale", 0.25)
            .obj("dispatch", Obj::new().flag("forced", false))
            .obj(
                "phase_medians",
                Obj::new().obj("db", Obj::new().fixed("b", 1.5, 6).int("a", 3)),
            )
            .rows(
                "presets",
                vec![Obj::new()
                    .text("db", "x")
                    .rows("sweep", vec![Obj::new().int("batch", 1).int("n", 2)])],
            )
            .rows("empty", Vec::new())
            .fixed("nan", f64::NAN, 3);
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"bench\": \"t \\\"q\\\"\",\n  \"scale\": 0.25,\n  \
             \"dispatch\": {\"forced\": false},\n  \"phase_medians\": {\n    \
             \"db\": {\"b\": 1.500000, \"a\": 3}\n  },\n  \"presets\": [\n    {\n      \
             \"db\": \"x\",\n      \"sweep\": [\n        \
             {\"batch\": 1, \"n\": 2}\n      ]\n    }\n  ],\n  \
             \"empty\": [],\n  \"nan\": 0\n}\n"
        );
        let v = parse(&text).expect("valid JSON");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("t \"q\""));
        let row = v
            .get("presets")
            .and_then(|p| p.idx(0))
            .and_then(|p| p.get("sweep"))
            .and_then(|s| s.idx(0));
        assert_eq!(row.and_then(|r| r.get("n")), Some(&Value::Num(2.0)));
    }
}
