//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span: name,
//! start, end, parent span, and a group id shared by the spans of one
//! session, one frame or one serve call. Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, group: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns: t,
            end_ns: t,
        });
        self.spans.len() - 1
    }

    /// Renames span `id`: some calls are classified only by what they
    /// turned out to do.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn close(&mut self, id: usize) {
        let t = self.now_ns();
        self.spans[id].end_ns = t;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, group, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Duration in µs of span `id`.
    pub fn micros(&self, id: usize) -> f64 {
        self.spans[id].micros()
    }

    /// Durations in µs of every closed span called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Writes every span as one JSON line to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"group\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.group, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_rename() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 7, None);
        let inner = t.span("inner", 7, Some(outer), || 3);
        assert_eq!(inner, 3);
        t.close(outer);
        t.rename(outer, "renamed");
        assert_eq!(t.micros_of("inner").len(), 1);
        assert_eq!(t.micros_of("renamed").len(), 1);
        assert!(t.micros_of("outer").is_empty());
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
