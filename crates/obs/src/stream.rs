//! Dependency-free line-JSON (NDJSON) streaming sink.
//!
//! The live-telemetry leg of the observability layer: the simulator
//! writes one self-contained JSON object per line — `obs.sample/v1`
//! frames every sampling interval, one terminal `obs.summary/v1` frame
//! — to a file opened in append mode. Each line goes out as a single
//! `write_all` call so concurrent writers on a local file interleave
//! whole lines, and a reader tailing the file never sees a torn frame
//! boundary on Linux pipes/files smaller than `PIPE_BUF`.
//!
//! Sink failures never abort a simulation: the first write error marks
//! the sink dead, subsequent writes are dropped, and the error count is
//! reported in the run's artifact so silent data loss is visible.

use std::io::Write;

/// Line-oriented JSON frame writer over an append-mode file.
#[derive(Debug)]
pub struct StreamWriter {
    /// `None` once a write failed: everything after is dropped.
    sink: Option<std::fs::File>,
    scratch: Vec<u8>,
    lines: u64,
    errors: u64,
}

impl StreamWriter {
    /// Opens the file at `target` in create+append mode.
    pub fn open(target: &str) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(target)?;
        Ok(StreamWriter {
            sink: Some(file),
            scratch: Vec::with_capacity(4096),
            lines: 0,
            errors: 0,
        })
    }

    /// Writes one frame as a single line (a trailing `\n` is appended;
    /// `frame` itself must not contain newlines — the caller emits
    /// compact single-line JSON). One `write_all` per line.
    pub fn write_line(&mut self, frame: &str) {
        debug_assert!(!frame.contains('\n'), "frames must be single-line");
        self.scratch.clear();
        self.scratch.extend_from_slice(frame.as_bytes());
        self.scratch.push(b'\n');
        match self.sink.as_mut().map(|f| f.write_all(&self.scratch)) {
            Some(Ok(())) => self.lines += 1,
            _ => {
                self.errors += 1;
                self.sink = None;
            }
        }
    }

    /// Flushes the file (called once at end of run).
    pub fn flush(&mut self) {
        if self.sink.as_mut().is_some_and(|f| f.flush().is_err()) {
            self.errors += 1;
            self.sink = None;
        }
    }

    /// Frames successfully written.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Frames dropped on a dead or failing sink.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_sink_writes_one_frame_per_line() {
        let dir = std::env::temp_dir().join("equinox_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.ndjson");
        let _ = std::fs::remove_file(&path);
        let mut w = StreamWriter::open(path.to_str().unwrap()).expect("open file sink");
        w.write_line(r#"{"schema": "obs.sample/v1", "cycle": 100}"#);
        w.write_line(r#"{"schema": "obs.summary/v1", "cycle": 200}"#);
        w.flush();
        assert_eq!(w.lines_written(), 2);
        assert_eq!(w.errors(), 0);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("obs.sample/v1"));
        assert!(lines[1].contains("obs.summary/v1"));
        assert!(body.ends_with('\n'), "every frame is newline-terminated");
    }

    #[test]
    fn unopenable_path_is_an_error_not_a_panic() {
        assert!(StreamWriter::open("/nonexistent-dir/equinox/frames.ndjson").is_err());
    }
}
