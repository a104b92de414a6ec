//! What every job's outcome must be, and the check against it.
//!
//! The table is `expected.json`, written by hand from the paper's Table I.
//! An outcome that differs from it — or a job whose cycle or instruction
//! count changes between two sightings of the same shape — is a *failed*
//! operation of the benchmark. The six expected HLS synthesis failures are
//! correct outcomes.

use repro_sched::{Flow, JobRequest, JobStats, Payload};
use repro_util::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    Ok,
    /// Must fail with error kind `Synthesis` and this reason in its message.
    Synthesis(String),
}

/// One observed outcome, from the wire or from an in-process call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seen {
    Ok(JobStats),
    Err { kind: String, message: String },
}

impl Seen {
    pub fn from_result(r: &Result<JobStats, ocl_suite::ReproError>) -> Seen {
        match r {
            Ok(s) => Seen::Ok(*s),
            Err(e) => Seen::Err {
                kind: e.kind().to_string(),
                message: e.to_string(),
            },
        }
    }
}

pub struct Table {
    rows: Vec<(String, [Expected; 3])>,
}

impl Table {
    /// Parse the table compiled into the binary.
    pub fn load() -> Table {
        let doc = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
        let rows = doc
            .get("benchmarks")
            .and_then(Json::as_array)
            .expect("expected.json has `benchmarks`")
            .iter()
            .map(|row| {
                let name = row.get("name").and_then(Json::as_str).expect("row name");
                let cell = |flow: &str| match row.get(flow).expect("row has every flow") {
                    Json::Str(s) if s == "ok" => Expected::Ok,
                    other => Expected::Synthesis(
                        other
                            .get("Synthesis")
                            .and_then(Json::as_str)
                            .expect("a cell is \"ok\" or {\"Synthesis\": reason}")
                            .to_string(),
                    ),
                };
                (
                    name.to_string(),
                    [cell("vortex"), cell("interp"), cell("hls")],
                )
            })
            .collect();
        Table { rows }
    }

    #[cfg(test)]
    fn names(&self) -> Vec<&str> {
        self.rows.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Inline-source jobs must run; suite jobs follow the table.
    pub fn expect(&self, req: &JobRequest) -> &Expected {
        const OK: &Expected = &Expected::Ok;
        let Payload::Bench { name, .. } = &req.payload else {
            return OK;
        };
        let row = self
            .rows
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("`{name}` is not in expected.json"));
        &row.1[match req.flow {
            Flow::Vortex => 0,
            Flow::Interp => 1,
            Flow::Hls => 2,
        }]
    }
}

/// Why `seen` is not what `expected` asks for, if it is not.
pub fn deviation(expected: &Expected, seen: &Seen) -> Option<String> {
    match (expected, seen) {
        (Expected::Ok, Seen::Ok(_)) => None,
        (Expected::Synthesis(reason), Seen::Err { kind, message })
            if kind == "Synthesis" && message.contains(reason.as_str()) =>
        {
            None
        }
        (Expected::Ok, Seen::Err { kind, message }) => {
            Some(format!("expected ok, got {kind}: {message}"))
        }
        (Expected::Synthesis(reason), other) => Some(format!(
            "expected a Synthesis failure ({reason}), got {other:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_the_suite_in_order_with_six_hls_failures() {
        let t = Table::load();
        let suite: Vec<&str> = ocl_suite::all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(t.names(), suite);
        let fails: Vec<&str> = t
            .rows
            .iter()
            .filter(|(_, c)| c[2] != Expected::Ok)
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            fails,
            ["Lbm", "Backprop", "B+tree", "Hybridsort", "Dwd2d", "LUD"]
        );
        assert!(t
            .rows
            .iter()
            .all(|(_, c)| c[0] == Expected::Ok && c[1] == Expected::Ok));
    }

    #[test]
    fn deviations_are_named() {
        let synth = Expected::Synthesis("Atomics".to_string());
        let ok = Seen::Ok(JobStats::default());
        let err = |m: &str| Seen::Err {
            kind: "Synthesis".to_string(),
            message: m.to_string(),
        };
        assert_eq!(deviation(&Expected::Ok, &ok), None);
        assert_eq!(
            deviation(&synth, &err("synthesis failed after 0h: Atomics")),
            None
        );
        assert!(deviation(&synth, &err("synthesis failed after 1h: Not enough BRAM")).is_some());
        assert!(deviation(&synth, &ok).is_some());
        assert!(deviation(&Expected::Ok, &err("x")).is_some());
    }
}
